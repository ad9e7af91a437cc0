#include "compiler/lower.hh"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "base/logging.hh"
#include "compiler/threading.hh"
#include "dfg/analysis.hh"
#include "sir/analysis.hh"

namespace pipestitch::compiler {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::NodeKind;
using dfg::Operand;
using dfg::Port;
using sir::ArrayId;
using sir::Reg;
using sir::Word;
namespace pidx = dfg::port_idx;

namespace {

/** Environment key: registers >= 0; memory-order pseudo-keys < -1. */
using Key = int;

Key
ordKey(ArrayId array)
{
    return -2 - array;
}

/** A register's current producer: a DFG port or a folded constant. */
struct Def
{
    enum class Kind { None, Wire, Imm };
    Kind kind = Kind::None;
    Port port;
    Word imm = 0;

    static Def
    wire(Port p)
    {
        Def d;
        d.kind = Kind::Wire;
        d.port = p;
        return d;
    }

    static Def
    imm_(Word v)
    {
        Def d;
        d.kind = Kind::Imm;
        d.imm = v;
        return d;
    }

    bool isWire() const { return kind == Kind::Wire; }
    bool isImm() const { return kind == Kind::Imm; }
    bool isNone() const { return kind == Kind::None; }

    Operand
    operand() const
    {
        ps_assert(!isNone(), "operand from undefined value");
        return isImm() ? Operand::imm_(imm) : Operand::wire(port);
    }
};

/** One key's binding in one scope. */
struct Binding
{
    Def def;
    bool bound = false;
    /** Assigned in this scope (not merely cached from a parent). */
    bool modified = false;
};

/** A scope's bindings, indexed by Lowering::slotOf(key). */
using BindingTable = std::vector<Binding>;

class Lowering;

/**
 * A lexical region during the walk: tracks register → Def bindings,
 * lazily steering values that flow in from an enclosing conditioned
 * region (tokens may only be consumed on the executed path).
 *
 * Bindings live in a dense table with one slot per key, borrowed
 * from the Lowering's pool and handed back (with only the touched
 * slots reset) when the scope ends.
 */
class Scope
{
  public:
    /** Root scope (unconditioned). */
    explicit Scope(Lowering &low);

    /** Gated child: values read from @p parent are steered through
     *  (decider, polarity) on first use. */
    Scope(Scope &parent, Port decider, bool polarity);

    /** Ungated child used for loop head regions: bindings are
     *  installed explicitly and lookups must not fall through. */
    Scope(Lowering &low, bool);

    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    Def lookup(Key key) { return lookupImpl(key, true); }
    /** Like lookup but yields None for unknown keys (φ-merge sides
     *  probing values that only exist on the other branch). */
    Def tryLookup(Key key) { return lookupImpl(key, false); }
    void set(Key key, Def def);
    /** Install a binding without marking it modified (gate seeding). */
    void bind(Key key, Def def) { slot(key).def = def; }
    void kill(Key key) { set(key, Def{}); }
    bool hasLocal(Key key) const { return slot(key).bound; }
    bool isModified(Key key) const { return slot(key).modified; }

    /** A port producing exactly one token per execution of this
     *  region (used to materialize constants as token streams). */
    Port regionToken();
    void setRegionToken(Port p) { regionPort = p; }

    /** Materialized-constant cache (one Const node per value). */
    std::map<Word, Port> constCache;

    /** Keys assigned in this scope, in ascending order. */
    std::vector<Key> modifiedKeys() const;

  private:
    Def lookupImpl(Key key, bool strict);
    /** @p key 's slot, marked bound (a local binding) on first use. */
    Binding &slot(Key key);
    const Binding &slot(Key key) const;

    Lowering &low;
    Scope *parent;
    bool gated;
    bool sealed = false;
    Port decider;
    bool polarity = true;
    BindingTable table;
    /** Keys with a local binding, in first-bound order. */
    std::vector<Key> boundKeys;
    Port regionPort{dfg::NoNode, 0};
};

class Lowering
{
  public:
    Lowering(const sir::Program &prog, const LowerOptions &opts)
        : prog(prog), opts(opts), graph(prog.name),
          liveness(prog)
    {
        classifyArrays();
    }

    /** Dense index of @p key: registers first, then one memory-order
     *  key per array. */
    size_t
    slotOf(Key key) const
    {
        size_t slot = key >= 0 ? static_cast<size_t>(key)
                               : static_cast<size_t>(prog.numRegs) +
                                     static_cast<size_t>(-2 - key);
        ps_assert(key != -1 && slot < numSlots(), "key %d has no slot",
                  key);
        return slot;
    }

    size_t
    numSlots() const
    {
        return static_cast<size_t>(prog.numRegs) + prog.arrays.size();
    }

    /** A cleared binding table from the pool. */
    BindingTable
    takeTable()
    {
        if (spareTables.empty())
            return BindingTable(numSlots());
        BindingTable t = std::move(spareTables.back());
        spareTables.pop_back();
        return t;
    }

    void
    returnTable(BindingTable t)
    {
        spareTables.push_back(std::move(t));
    }

    Graph run();

    // --- node factories ----------------------------------------------
    NodeId
    addNode(Node node)
    {
        node.loopId = currentLoop;
        NodeId id = graph.add(std::move(node));
        return id;
    }

    Port
    mkSteer(Port decider, bool polarity, Def value,
            const std::string &name)
    {
        Node n;
        n.kind = NodeKind::Steer;
        n.steerIfTrue = polarity;
        n.inputs.resize(2);
        n.inputs[pidx::SteerDecider] = Operand::wire(decider);
        n.inputs[pidx::SteerValue] = value.operand();
        n.name = name;
        return {addNode(std::move(n)), 0};
    }

    Port
    mkConst(Port region, Word value)
    {
        Node n;
        n.kind = NodeKind::Const;
        n.imm = value;
        n.inputs = {Operand::wire(region)};
        n.name = csprintf("c%d", value);
        return {addNode(std::move(n)), 0};
    }

    Port
    trigger()
    {
        if (triggerId == dfg::NoNode) {
            Node n;
            n.kind = NodeKind::Trigger;
            n.name = "start";
            int saved = currentLoop;
            currentLoop = -1;
            triggerId = addNode(std::move(n));
            currentLoop = saved;
        }
        return {triggerId, 0};
    }

    /** Turn a Def into a token-producing wire (constants become
     *  Const nodes firing once per region execution). */
    Port
    materialize(Scope &scope, const Def &def)
    {
        if (def.isWire())
            return def.port;
        ps_assert(def.isImm(), "materializing undefined value");
        auto it = scope.constCache.find(def.imm);
        if (it != scope.constCache.end())
            return it->second;
        Port p = mkConst(scope.regionToken(), def.imm);
        scope.constCache[def.imm] = p;
        return p;
    }

    const sir::Program &prog;
    const LowerOptions &opts;
    Graph graph;
    sir::Liveness liveness;

    int currentLoop = -1;

  private:
    void classifyArrays();
    void walkList(const sir::StmtList &list, Scope &scope);
    void walkStmt(const sir::Stmt &stmt, Scope &scope);
    void lowerIf(const sir::IfStmt &stmt, Scope &scope);
    void lowerLoop(const sir::Stmt &stmt, Scope &scope);
    void lowerMemOp(const sir::Stmt &stmt, Scope &scope);
    void markLoopDepths();

    NodeId triggerId = dfg::NoNode;
    std::vector<bool> arrayReadWrite; // needs order tokens
    std::vector<BindingTable> spareTables;

    // loop bookkeeping (pre-assigned ids shared with the threading
    // heuristic so they agree under constant folding)
    std::unordered_map<const sir::Stmt *, int> loopIds;
    std::vector<int> loopParents;
    std::vector<bool> loopThreadedFlags;
};

// -----------------------------------------------------------------------
// Scope
// -----------------------------------------------------------------------

Scope::Scope(Lowering &low)
    : low(low), parent(nullptr), gated(false), table(low.takeTable())
{}

Scope::Scope(Scope &parent, Port decider, bool polarity)
    : low(parent.low), parent(&parent), gated(true), decider(decider),
      polarity(polarity), table(low.takeTable())
{}

Scope::Scope(Lowering &low, bool)
    : low(low), parent(nullptr), gated(false), sealed(true),
      table(low.takeTable())
{}

Scope::~Scope()
{
    for (Key key : boundKeys)
        table[low.slotOf(key)] = Binding{};
    low.returnTable(std::move(table));
}

Binding &
Scope::slot(Key key)
{
    Binding &b = table[low.slotOf(key)];
    if (!b.bound) {
        b.bound = true;
        boundKeys.push_back(key);
    }
    return b;
}

const Binding &
Scope::slot(Key key) const
{
    return table[low.slotOf(key)];
}

std::vector<Key>
Scope::modifiedKeys() const
{
    std::vector<Key> keys;
    for (Key key : boundKeys) {
        if (slot(key).modified)
            keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

Def
Scope::lookupImpl(Key key, bool strict)
{
    if (const Binding &b = std::as_const(*this).slot(key); b.bound)
        return b.def;

    Def fromParent;
    if (parent != nullptr) {
        fromParent = parent->lookupImpl(key, strict);
    } else if (sealed) {
        if (!strict)
            return Def{};
        panic("internal: key %d escaped its loop head scope", key);
    } else if (key < -1) {
        // First memory access to an ordered array at top level:
        // seed the order chain with a region token.
        fromParent = Def::wire(low.mkConst(regionToken(), 1));
        bind(key, fromParent);
        return fromParent;
    } else {
        if (!strict)
            return Def{};
        fatal("program %s: register r%d read before assignment",
              low.prog.name.c_str(), key);
    }
    if (fromParent.isNone())
        return fromParent;

    if (gated && fromParent.isWire()) {
        Def steered = Def::wire(low.mkSteer(
            decider, polarity, fromParent,
            csprintf("gate%s_k%d", polarity ? "T" : "F", key)));
        bind(key, steered);
        return steered;
    }
    // Constants and None flow through ungated; cache to keep lookups
    // cheap but do not mark as modified.
    bind(key, fromParent);
    return fromParent;
}

void
Scope::set(Key key, Def def)
{
    Binding &b = slot(key);
    b.def = def;
    b.modified = true;
}

Port
Scope::regionToken()
{
    if (regionPort.valid())
        return regionPort;
    if (parent == nullptr) {
        ps_assert(!sealed, "loop head scope needs explicit region");
        regionPort = low.trigger();
        return regionPort;
    }
    Port parentToken = parent->regionToken();
    if (gated) {
        regionPort = low.mkSteer(decider, polarity,
                                 Def::wire(parentToken), "region");
    } else {
        regionPort = parentToken;
    }
    return regionPort;
}

// -----------------------------------------------------------------------
// Lowering
// -----------------------------------------------------------------------

namespace {

/**
 * Record arrays stored to outside any foreach region. Stores inside
 * a foreach body are covered by the programmer's independence
 * contract (iterations write disjoint locations, Sec. 4.1);
 * anything else must join the array's memory-order chain.
 */
void
collectSequentialStores(const sir::StmtList &list, bool inForeach,
                        std::set<ArrayId> &out)
{
    for (const auto &stmt : list) {
        switch (stmt->kind()) {
          case sir::Stmt::Kind::Store:
            if (!inForeach) {
                out.insert(
                    static_cast<const sir::StoreStmt &>(*stmt)
                        .array);
            }
            break;
          case sir::Stmt::Kind::If: {
            const auto &s = static_cast<const sir::IfStmt &>(*stmt);
            collectSequentialStores(s.thenBody, inForeach, out);
            collectSequentialStores(s.elseBody, inForeach, out);
            break;
          }
          case sir::Stmt::Kind::For: {
            const auto &s = static_cast<const sir::ForStmt &>(*stmt);
            collectSequentialStores(s.body,
                                    inForeach || s.isForeach, out);
            break;
          }
          case sir::Stmt::Kind::While: {
            const auto &s =
                static_cast<const sir::WhileStmt &>(*stmt);
            collectSequentialStores(s.header, inForeach, out);
            collectSequentialStores(s.body, inForeach, out);
            break;
          }
          default:
            break;
        }
    }
}

} // namespace

void
Lowering::classifyArrays()
{
    // An array needs order tokens when program-order memory
    // semantics are observable on it: it is both loaded and stored,
    // or it is stored from sequential (non-foreach) code more than
    // trivially. Arrays only stored inside foreach bodies rely on
    // the foreach independence contract and stay unordered.
    auto loaded = sir::loadedArrays(prog.body);
    auto stored = sir::storedArrays(prog.body);
    std::set<ArrayId> sequentialStores;
    collectSequentialStores(prog.body, false, sequentialStores);

    arrayReadWrite.assign(prog.arrays.size(), false);
    for (ArrayId a : stored) {
        if (a == sir::AnyArray)
            continue;
        if (loaded.count(a) || sequentialStores.count(a))
            arrayReadWrite[static_cast<size_t>(a)] = true;
    }
}

Graph
Lowering::run()
{
    ps_assert(opts.liveInValues.size() == prog.liveIns.size(),
              "program %s expects %zu live-ins, got %zu",
              prog.name.c_str(), prog.liveIns.size(),
              opts.liveInValues.size());

    loopIds = numberLoops(prog);
    loopParents.assign(loopIds.size(), -1);
    loopThreadedFlags.assign(loopIds.size(), false);

    Scope root(*this);
    for (size_t i = 0; i < prog.liveIns.size(); i++)
        root.set(prog.liveIns[i], Def::imm_(opts.liveInValues[i]));

    walkList(prog.body, root);

    graph.numLoops = static_cast<int>(loopIds.size());
    graph.loopParent = loopParents;
    graph.loopThreaded = loopThreadedFlags;

    graph.eliminateDeadNodes(); // finalizes
    markLoopDepths();
    return std::move(graph);
}

void
Lowering::markLoopDepths()
{
    auto inner = dfg::innermostLoops(graph);
    std::vector<bool> isInner(static_cast<size_t>(graph.numLoops),
                              false);
    for (int l : inner)
        isInner[static_cast<size_t>(l)] = true;
    for (auto &node : graph.nodes) {
        int depth = 0;
        for (int l = node.loopId; l >= 0;
             l = graph.loopParent[static_cast<size_t>(l)]) {
            depth++;
        }
        node.loopDepth = depth;
        node.innerLoop =
            node.loopId >= 0 &&
            isInner[static_cast<size_t>(node.loopId)];
    }
}

void
Lowering::walkList(const sir::StmtList &list, Scope &scope)
{
    for (const auto &stmt : list)
        walkStmt(*stmt, scope);
}

void
Lowering::walkStmt(const sir::Stmt &stmt, Scope &scope)
{
    switch (stmt.kind()) {
      case sir::Stmt::Kind::Const: {
        const auto &s = static_cast<const sir::ConstStmt &>(stmt);
        scope.set(s.dst, Def::imm_(s.value));
        break;
      }
      case sir::Stmt::Kind::Compute: {
        const auto &s = static_cast<const sir::ComputeStmt &>(stmt);
        Def a = scope.lookup(s.a);
        Def b = scope.lookup(s.b);
        Def c = s.op == sir::Opcode::Select ? scope.lookup(s.c)
                                            : Def::imm_(0);
        ps_assert(!a.isNone() && !b.isNone() && !c.isNone(),
                  "operand of r%d is undefined", s.dst);
        if (a.isImm() && b.isImm() && c.isImm()) {
            scope.set(s.dst, Def::imm_(sir::evalOpcode(
                                 s.op, a.imm, b.imm, c.imm)));
            break;
        }
        // Copy propagation: x + 0 / 0 + x / x | 0 / x ^ 0 alias x.
        if (s.op == sir::Opcode::Add || s.op == sir::Opcode::Or ||
            s.op == sir::Opcode::Xor) {
            if (b.isImm() && b.imm == 0) {
                scope.set(s.dst, a);
                break;
            }
            if (a.isImm() && a.imm == 0 &&
                s.op == sir::Opcode::Add) {
                scope.set(s.dst, b);
                break;
            }
        }
        Node n;
        n.kind = NodeKind::Arith;
        n.op = s.op;
        n.inputs = {a.operand(), b.operand()};
        if (s.op == sir::Opcode::Select)
            n.inputs.push_back(c.operand());
        n.name = csprintf("%s_r%d", sir::opcodeName(s.op), s.dst);
        scope.set(s.dst, Def::wire({addNode(std::move(n)), 0}));
        break;
      }
      case sir::Stmt::Kind::Load:
      case sir::Stmt::Kind::Store:
        lowerMemOp(stmt, scope);
        break;
      case sir::Stmt::Kind::If:
        lowerIf(static_cast<const sir::IfStmt &>(stmt), scope);
        break;
      case sir::Stmt::Kind::For:
      case sir::Stmt::Kind::While:
        lowerLoop(stmt, scope);
        break;
    }
}

void
Lowering::lowerMemOp(const sir::Stmt &stmt, Scope &scope)
{
    bool isLoad = stmt.kind() == sir::Stmt::Kind::Load;
    ArrayId array = isLoad
                        ? static_cast<const sir::LoadStmt &>(stmt).array
                        : static_cast<const sir::StoreStmt &>(stmt)
                              .array;
    bool ordered = array != sir::AnyArray &&
                   arrayReadWrite[static_cast<size_t>(array)];

    if (isLoad) {
        const auto &s = static_cast<const sir::LoadStmt &>(stmt);
        Def addr = scope.lookup(s.addr);
        if (addr.isImm())
            addr = Def::imm_(addr.imm + s.offset);
        Node n;
        n.kind = NodeKind::Load;
        n.array = array;
        n.imm = addr.isImm() ? 0 : s.offset;
        n.inputs.resize(2);
        n.inputs[pidx::LoadAddr] = addr.operand();
        if (ordered) {
            Def ord = scope.lookup(ordKey(array));
            n.inputs[pidx::LoadOrder] =
                Operand::wire(materialize(scope, ord));
        } else if (!addr.isWire()) {
            // Constant address: fire once per region execution.
            n.inputs[pidx::LoadOrder] =
                Operand::wire(scope.regionToken());
        }
        n.name = csprintf("ld_%s",
                          array == sir::AnyArray
                              ? "mem"
                              : prog.array(array).name.c_str());
        NodeId id = addNode(std::move(n));
        scope.set(s.dst, Def::wire({id, pidx::LoadDataOut}));
        if (ordered) {
            scope.set(ordKey(array),
                      Def::wire({id, pidx::LoadDoneOut}));
        }
    } else {
        const auto &s = static_cast<const sir::StoreStmt &>(stmt);
        Def addr = scope.lookup(s.addr);
        if (addr.isImm())
            addr = Def::imm_(addr.imm + s.offset);
        Def data = scope.lookup(s.value);
        Node n;
        n.kind = NodeKind::Store;
        n.array = array;
        n.imm = addr.isImm() ? 0 : s.offset;
        n.inputs.resize(3);
        n.inputs[pidx::StoreAddr] = addr.operand();
        n.inputs[pidx::StoreData] = data.operand();
        if (ordered) {
            Def ord = scope.lookup(ordKey(array));
            n.inputs[pidx::StoreOrder] =
                Operand::wire(materialize(scope, ord));
        } else if (!addr.isWire() && !data.isWire()) {
            n.inputs[pidx::StoreOrder] =
                Operand::wire(scope.regionToken());
        }
        n.name = csprintf("st_%s",
                          array == sir::AnyArray
                              ? "mem"
                              : prog.array(array).name.c_str());
        NodeId id = addNode(std::move(n));
        if (ordered) {
            scope.set(ordKey(array),
                      Def::wire({id, pidx::StoreDoneOut}));
        }
    }
}

void
Lowering::lowerIf(const sir::IfStmt &stmt, Scope &scope)
{
    Def cond = scope.lookup(stmt.cond);
    ps_assert(!cond.isNone(), "if condition undefined");

    // Statically resolved branch (constant folding).
    if (cond.isImm()) {
        walkList(cond.imm != 0 ? stmt.thenBody : stmt.elseBody, scope);
        return;
    }

    Scope thenScope(scope, cond.port, true);
    walkList(stmt.thenBody, thenScope);
    Scope elseScope(scope, cond.port, false);
    walkList(stmt.elseBody, elseScope);

    // φ-merge every key either branch assigned, in key order.
    std::vector<Key> thenKeys = thenScope.modifiedKeys();
    std::vector<Key> elseKeys = elseScope.modifiedKeys();
    std::vector<Key> merged;
    std::set_union(thenKeys.begin(), thenKeys.end(), elseKeys.begin(),
                   elseKeys.end(), std::back_inserter(merged));
    for (Key key : merged) {
        Def t = thenScope.tryLookup(key);
        Def e = elseScope.tryLookup(key);
        if (t.isNone() || e.isNone()) {
            // Defined on one path only and dead on the other;
            // record as undefined after the join.
            scope.kill(key);
            continue;
        }
        if (t.isImm() && e.isImm() && t.imm == e.imm) {
            scope.set(key, t);
            continue;
        }
        Node n;
        n.kind = NodeKind::Merge;
        n.inputs.resize(3);
        n.inputs[pidx::MergeDecider] = Operand::wire(cond.port);
        n.inputs[pidx::MergeTrue] = t.operand();
        n.inputs[pidx::MergeFalse] = e.operand();
        n.name = csprintf("phi_k%d", key);
        scope.set(key, Def::wire({addNode(std::move(n)), 0}));
    }
}

namespace {

/** Normalized view of a For/While loop for the shared lowering. */
struct LoopShape
{
    bool isFor = false;
    const sir::ForStmt *forStmt = nullptr;
    const sir::WhileStmt *whileStmt = nullptr;
    const sir::StmtList *header = nullptr; // While only
    const sir::StmtList *body = nullptr;
    Reg var = sir::NoReg;
    bool isForeach = false;
};

} // namespace

void
Lowering::lowerLoop(const sir::Stmt &stmt, Scope &scope)
{
    LoopShape shape;
    if (stmt.kind() == sir::Stmt::Kind::For) {
        shape.isFor = true;
        shape.forStmt = static_cast<const sir::ForStmt *>(&stmt);
        shape.body = &shape.forStmt->body;
        shape.var = shape.forStmt->var;
        shape.isForeach = shape.forStmt->isForeach;
    } else {
        shape.whileStmt = static_cast<const sir::WhileStmt *>(&stmt);
        shape.header = &shape.whileStmt->header;
        shape.body = &shape.whileStmt->body;
        for (const auto &h : *shape.header) {
            ps_assert(h->kind() != sir::Stmt::Kind::For &&
                          h->kind() != sir::Stmt::Kind::While,
                      "loops inside while headers are unsupported");
        }
    }

    const int loopId = loopIds.at(&stmt);
    const int parentLoop = currentLoop;
    loopParents[static_cast<size_t>(loopId)] = parentLoop;
    const bool threaded = opts.threadLoops.count(loopId) != 0;
    loopThreadedFlags[static_cast<size_t>(loopId)] = threaded;

    // ---- analysis sets -------------------------------------------------
    std::vector<const sir::StmtList *> lists;
    if (shape.header)
        lists.push_back(shape.header);
    lists.push_back(shape.body);

    sir::RegSet defs;
    for (const auto *l : lists)
        defs.insert(sir::collectDefs(*l));
    sir::RegSet exposed = sir::upwardExposedUsesSeq(lists);
    exposed.erase(shape.var);
    sir::RegSet uses;
    for (const auto *l : lists)
        uses.insert(sir::collectUses(*l));
    const sir::RegSet &liveAfter = liveness.liveAfter(stmt);

    // Carried values: flow across the iteration boundary (or must
    // survive to the loop exit).
    std::vector<Key> carried;
    if (shape.isFor)
        carried.push_back(shape.var);
    for (Reg r : defs) {
        if (r == shape.var)
            continue;
        if (exposed.count(r) || liveAfter.count(r))
            carried.push_back(r);
    }
    // Memory-order chains for read-write arrays touched in the loop.
    std::set<ArrayId> touched;
    for (const auto *l : lists) {
        auto la = sir::loadedArrays(*l);
        auto sa = sir::storedArrays(*l);
        touched.insert(la.begin(), la.end());
        touched.insert(sa.begin(), sa.end());
    }
    std::vector<Key> orderedArrays;
    for (ArrayId a : touched) {
        if (a != sir::AnyArray &&
            arrayReadWrite[static_cast<size_t>(a)]) {
            carried.push_back(ordKey(a));
            orderedArrays.push_back(ordKey(a));
        }
    }

    // Loop-invariant values: read in the loop, never written.
    std::vector<Key> invariants;
    for (Reg r : uses) {
        if (defs.count(r) || r == shape.var)
            continue;
        if (scope.lookup(r).isWire())
            invariants.push_back(r);
        // Constants flow into the loop as immediates.
    }
    // Threads may terminate out of order (Sec. 3). Any live token
    // the code after the loop consumes must therefore travel
    // *through* the thread — as a dispatch-carried invariant with
    // its own exit steer (the `i` dispatch of Fig. 7) — so that it
    // stays paired with the thread's results.
    if (threaded) {
        for (Reg r : liveAfter) {
            if (defs.count(r) || r == shape.var)
                continue;
            if (std::find(invariants.begin(), invariants.end(), r) !=
                invariants.end())
                continue;
            // Constants (and values not visible here) carry no
            // tokens, so they need no thread routing.
            if (scope.tryLookup(r).isWire())
                invariants.push_back(r);
        }
    }
    // A For loop evaluates `end` every iteration.
    bool endIsInvariant = false;
    if (shape.isFor && scope.lookup(shape.forStmt->end).isWire() &&
        !defs.count(shape.forStmt->end)) {
        endIsInvariant = true;
    }

    // Stream fusion: unthreaded For loops fuse induction + compare
    // into a stream generator (and then need no `end` invariant).
    const bool fused = shape.isFor && !threaded && opts.useStreams;

    // ---- gates ---------------------------------------------------------
    // Materialize initial values in the enclosing region first.
    std::map<Key, Port> initPorts;
    for (Key k : carried) {
        if (k == shape.var) {
            if (!fused) {
                initPorts[k] = materialize(
                    scope, scope.lookup(shape.forStmt->begin));
            }
            continue;
        }
        Def init = scope.lookup(k);
        ps_assert(!init.isNone(),
                  "carried value k%d has no initial value before "
                  "loop %d",
                  k, loopId);
        initPorts[k] = materialize(scope, init);
    }
    std::map<Key, Port> invariantInit;
    for (Key k : invariants)
        invariantInit[k] = scope.lookup(k).port;
    if (endIsInvariant && !fused)
        invariantInit[shape.forStmt->end] =
            scope.lookup(shape.forStmt->end).port;

    currentLoop = loopId;

    // Head scope: bindings valid at the top of each iteration.
    Scope head(*this, true);

    // Create gate nodes (dispatch when threaded, carry otherwise).
    std::map<Key, NodeId> gates;
    for (Key k : carried) {
        if (fused && k == shape.var)
            continue;
        Node n;
        n.kind = threaded ? NodeKind::Dispatch : NodeKind::Carry;
        n.inputs.resize(threaded ? 2 : 3);
        n.inputs[threaded ? pidx::DispatchSpawn : pidx::CarryInit] =
            Operand::wire(initPorts[k]);
        n.name = csprintf("%s_k%d", threaded ? "disp" : "carry", k);
        NodeId id = addNode(std::move(n));
        gates[k] = id;
        head.bind(k, Def::wire({id, 0}));
    }
    // Invariant gates. In threaded loops every invariant becomes a
    // dispatch-carried value (each thread owns a copy, Fig. 7); in
    // unthreaded loops an invariant gate replays the value.
    std::map<Key, NodeId> invGates;
    for (auto &[k, port] : invariantInit) {
        Node n;
        n.kind = threaded ? NodeKind::Dispatch : NodeKind::Invariant;
        n.inputs.resize(threaded ? 2 : 2);
        if (threaded) {
            n.inputs[pidx::DispatchSpawn] = Operand::wire(port);
        } else {
            n.inputs[pidx::InvValue] = Operand::wire(port);
        }
        n.name = csprintf("%s_k%d", threaded ? "dispI" : "inv", k);
        NodeId id = addNode(std::move(n));
        invGates[k] = id;
        head.bind(k, Def::wire({id, 0}));
    }

    // ---- loop condition --------------------------------------------------
    // The head region executes once per iteration (including the
    // final failing check); any gate output fires at that rate and
    // can serve as its region token.
    if (!gates.empty())
        head.setRegionToken({gates.begin()->second, 0});
    Port cond;
    NodeId streamId = dfg::NoNode;
    if (fused) {
        Node n;
        n.kind = NodeKind::Stream;
        n.streamStep = shape.forStmt->step;
        n.inputs.resize(3);
        Def begin = scope.lookup(shape.forStmt->begin);
        Def end = scope.lookup(shape.forStmt->end);
        // Dynamic bounds latch per execution; constant bounds need a
        // trigger token from the enclosing region.
        n.inputs[pidx::StreamBegin] = begin.operand();
        n.inputs[pidx::StreamEnd] = end.operand();
        if (!begin.isWire() && !end.isWire()) {
            n.inputs[pidx::StreamTrigger] =
                Operand::wire(scope.regionToken());
        }
        n.name = csprintf("stream_r%d", shape.var);
        streamId = addNode(std::move(n));
        cond = {streamId, pidx::StreamCondOut};
    } else {
        // Head binding for the induction variable, then the compare.
        if (shape.isFor) {
            Def endDef;
            if (invGates.count(shape.forStmt->end)) {
                endDef = Def::wire(
                    {invGates[shape.forStmt->end], 0});
            } else {
                endDef = scope.lookup(shape.forStmt->end);
                ps_assert(endDef.isImm(),
                          "For bound must be loop-invariant");
            }
            Node n;
            n.kind = NodeKind::Arith;
            n.op = sir::Opcode::Lt;
            n.inputs = {Operand::wire({gates[shape.var], 0}),
                        endDef.operand()};
            n.name = "forcond";
            cond = {addNode(std::move(n)), 0};
        }
    }

    // Seed constants invariants into the head scope so header/body
    // lookups never fall through.
    for (Reg r : uses) {
        if (head.hasLocal(r) || defs.count(r) || r == shape.var)
            continue;
        Def d = scope.lookup(r);
        if (d.isImm())
            head.bind(r, d);
    }
    if (shape.isFor && fused)
        head.bind(shape.var, Def::wire({streamId,
                                        pidx::StreamIdxOut}));

    if (shape.header != nullptr) {
        // While: walk the header (executes every iteration including
        // the final check), then read the condition.
        walkList(*shape.header, head);
        Def c = head.lookup(shape.whileStmt->cond);
        ps_assert(c.isWire(),
                  "while condition must be data-dependent");
        cond = c.port;
    }
    ps_assert(cond.valid(), "loop %d has no condition", loopId);
    if (gates.empty())
        head.setRegionToken(cond);

    // Wire deciders of unthreaded gates (dispatch has none: the
    // SyncPlane group logic replaces the decider, Fig. 10).
    if (!threaded) {
        for (auto &[k, id] : gates)
            graph.connect(cond, id, pidx::CarryDecider);
        for (auto &[k, id] : invGates)
            graph.connect(cond, id, pidx::InvDecider);
    }

    // ---- body ------------------------------------------------------------
    Scope body(head, cond, true);
    if (fused && shape.isFor) {
        // The stream's index output already fires once per executed
        // iteration: rebind ungated.
        body.set(shape.var, Def::wire({streamId, pidx::StreamIdxOut}));
    }
    walkList(*shape.body, body);

    // Backedges.
    for (Key k : carried) {
        if (fused && k == shape.var)
            continue;
        Def next;
        if (k == shape.var) {
            // var' = var + step
            Def gatedVar = body.lookup(shape.var);
            Node n;
            n.kind = NodeKind::Arith;
            n.op = sir::Opcode::Add;
            n.inputs = {gatedVar.operand(),
                        Operand::imm_(shape.forStmt->step)};
            n.name = "forstep";
            next = Def::wire({addNode(std::move(n)), 0});
        } else {
            next = body.lookup(k);
            ps_assert(!next.isNone(), "carried k%d undefined at "
                      "backedge", k);
            if (next.isImm()) {
                next = Def::wire(
                    mkConst(body.regionToken(), next.imm));
            }
        }
        graph.connect(next.port, gates[k],
                      threaded ? pidx::DispatchCont
                               : pidx::CarryCont);
    }
    if (threaded) {
        // Invariant dispatches recirculate through a steer.
        for (auto &[k, id] : invGates) {
            Port steered = mkSteer(cond, true, Def::wire({id, 0}),
                                   csprintf("invloop_k%d", k));
            graph.connect(steered, id, pidx::DispatchCont);
        }
    }

    // ---- exits -------------------------------------------------------------
    currentLoop = parentLoop;
    for (Reg r : liveAfter) {
        Def pre;
        if (head.isModified(r)) {
            // (Re)defined in the header: the final-check value is
            // the freshest (fires once per check, N+1 times).
            pre = head.lookup(r);
        } else if (gates.count(r)) {
            pre = Def::wire({gates[r], 0});
        } else if (threaded && invGates.count(r)) {
            // Thread-routed invariant: downstream code must consume
            // the copy that exits with this thread.
            pre = Def::wire({invGates[r], 0});
        } else {
            continue; // unchanged by the loop
        }
        if (!pre.isWire())
            continue;
        int saved = currentLoop;
        currentLoop = loopId;
        Port exit = mkSteer(cond, false, pre,
                            csprintf("exit_k%d", r));
        currentLoop = saved;
        scope.set(r, Def::wire(exit));
    }
    // Memory-order chains always exit (later code may access the
    // array again).
    for (Key k : orderedArrays) {
        int saved = currentLoop;
        currentLoop = loopId;
        Port exit = mkSteer(cond, false, Def::wire({gates[k], 0}),
                            csprintf("exit_ord%d", k));
        currentLoop = saved;
        scope.set(k, Def::wire(exit));
    }

    // Defs that do not survive the loop are dead afterwards.
    for (Reg r : defs) {
        if (!liveAfter.count(r))
            scope.kill(r);
    }
    if (shape.var != sir::NoReg)
        scope.kill(shape.var);
}

} // namespace

Graph
lower(const sir::Program &prog, const LowerOptions &opts)
{
    Lowering lowering(prog, opts);
    return lowering.run();
}

} // namespace pipestitch::compiler

/**
 * @file
 * Dataflow analyses over SIR used by the dataflow compiler:
 * definitely-assigned register sets, upward-exposed uses, and
 * structured liveness. All sets are conservative in the direction the
 * compiler needs (maybe-defs count as defs for carry insertion;
 * maybe-uses count as uses).
 */

#ifndef PIPESTITCH_SIR_ANALYSIS_HH
#define PIPESTITCH_SIR_ANALYSIS_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "sir/program.hh"

namespace pipestitch::sir {

/**
 * A set of registers, stored as a dense bitset over register ids.
 * Iteration visits members in ascending id order. insert, erase and
 * count are O(1); union and iteration are O(highest id / 64). The
 * first 128 ids live inline, so sets over typical kernels (tens of
 * registers) never touch the heap.
 */
class RegSet
{
  public:
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Reg;
        using difference_type = std::ptrdiff_t;
        using pointer = const Reg *;
        using reference = Reg;

        const_iterator() = default;

        Reg operator*() const
        {
            return static_cast<Reg>(word * 64 +
                                    std::countr_zero(bits));
        }

        const_iterator &
        operator++()
        {
            bits &= bits - 1;
            skipEmpty();
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator prev = *this;
            ++*this;
            return prev;
        }

        bool operator==(const const_iterator &o) const
        {
            return word == o.word && bits == o.bits;
        }

      private:
        friend class RegSet;

        const_iterator(const uint64_t *words, size_t numWords,
                       size_t word)
            : words(words), numWords(numWords), word(word),
              bits(word < numWords ? words[word] : 0)
        {
            skipEmpty();
        }

        void
        skipEmpty()
        {
            while (bits == 0 && word < numWords) {
                if (++word < numWords)
                    bits = words[word];
            }
        }

        const uint64_t *words = nullptr;
        size_t numWords = 0;
        size_t word = 0;
        uint64_t bits = 0;
    };

    RegSet() = default;
    RegSet(const RegSet &other) { assign(other); }
    RegSet(RegSet &&other) noexcept { take(other); }

    RegSet &
    operator=(const RegSet &other)
    {
        if (this != &other)
            assign(other);
        return *this;
    }

    RegSet &
    operator=(RegSet &&other) noexcept
    {
        if (this != &other)
            take(other);
        return *this;
    }

    const_iterator begin() const { return {data(), numWords, 0}; }
    const_iterator end() const
    {
        return {data(), numWords, numWords};
    }

    /** Negative ids (NoReg) are never members. */
    bool
    count(Reg r) const
    {
        size_t w = static_cast<size_t>(r) / 64;
        return r >= 0 && w < numWords &&
               (data()[w] >> (r % 64) & 1) != 0;
    }

    void
    insert(Reg r)
    {
        ps_assert(r >= 0, "register %d cannot join a RegSet", r);
        size_t w = static_cast<size_t>(r) / 64;
        reserveWords(w + 1);
        data()[w] |= uint64_t{1} << (r % 64);
    }

    /** Erasing a non-member (NoReg included) is a no-op. */
    void
    erase(Reg r)
    {
        size_t w = static_cast<size_t>(r) / 64;
        if (r >= 0 && w < numWords)
            data()[w] &= ~(uint64_t{1} << (r % 64));
    }

    /** Union: add every member of @p other. */
    void
    insert(const RegSet &other)
    {
        reserveWords(other.numWords);
        uint64_t *mine = data();
        const uint64_t *theirs = other.data();
        for (size_t w = 0; w < other.numWords; w++)
            mine[w] |= theirs[w];
    }

  private:
    static constexpr size_t kInlineWords = 2;

    uint64_t *data() { return heap ? heap.get() : local; }
    const uint64_t *data() const { return heap ? heap.get() : local; }

    /** Grow the storage (zero-filled) to at least @p n words. */
    void
    reserveWords(size_t n)
    {
        if (n <= numWords)
            return;
        size_t grown = std::max(n, 2 * numWords);
        auto bigger = std::make_unique<uint64_t[]>(grown);
        std::copy(data(), data() + numWords, bigger.get());
        heap = std::move(bigger);
        numWords = grown;
    }

    void
    assign(const RegSet &other)
    {
        reserveWords(other.numWords);
        uint64_t *mine = data();
        std::copy(other.data(), other.data() + other.numWords, mine);
        std::fill(mine + other.numWords, mine + numWords, 0);
    }

    /** Move @p other 's members here, leaving it empty. */
    void
    take(RegSet &other)
    {
        if (other.heap) {
            heap = std::move(other.heap);
            numWords = other.numWords;
        } else {
            assign(other);
        }
        other.numWords = kInlineWords;
        std::fill(other.local, other.local + kInlineWords, 0);
    }

    /** Words in use: the inline pair, or the heap block. */
    size_t numWords = kInlineWords;
    uint64_t local[kInlineWords] = {};
    std::unique_ptr<uint64_t[]> heap;
};

/** All registers assigned anywhere in @p list (recursively). */
RegSet collectDefs(const StmtList &list);

/** All registers read anywhere in @p list (recursively). */
RegSet collectUses(const StmtList &list);

/**
 * Registers whose value may be read in @p list before any assignment
 * within @p list (i.e. values that flow in from outside / from the
 * previous loop iteration). Definitions inside branches and nested
 * loops are treated as *maybe* definitions and do not kill uses.
 */
RegSet upwardExposedUses(const StmtList &list);

/** upwardExposedUses over several lists executed in sequence (e.g. a
 *  while loop's header followed by its body). */
RegSet upwardExposedUsesSeq(const std::vector<const StmtList *> &lists);

/** Arrays stored to anywhere in @p list. */
std::set<ArrayId> storedArrays(const StmtList &list);

/** Arrays loaded from anywhere in @p list. */
std::set<ArrayId> loadedArrays(const StmtList &list);

/**
 * Structured liveness: for every statement, the set of registers
 * whose value may still be read after the statement completes (in
 * program order, including subsequent loop iterations of enclosing
 * loops).
 */
class Liveness
{
  public:
    explicit Liveness(const Program &prog);

    /** Registers live immediately after @p stmt. */
    const RegSet &liveAfter(const Stmt &stmt) const;

  private:
    /**
     * Walk @p list backwards from @p live. Statements are numbered in
     * the order the walk first reaches them: @p next is the number of
     * the list's last statement, and on return it is one past the
     * numbers of the whole list (nested statements included).
     */
    RegSet walk(const StmtList &list, size_t &next, RegSet live);

    /** Live-after set per statement number. */
    std::vector<RegSet> after;
    /** (statement, number), sorted by address after the walk. */
    std::vector<std::pair<const Stmt *, size_t>> numbers;
};

} // namespace pipestitch::sir

#endif // PIPESTITCH_SIR_ANALYSIS_HH

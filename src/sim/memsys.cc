#include "sim/memsys.hh"

#include "base/logging.hh"

namespace pipestitch::sim {

MemSystem::MemSystem(MemImage &mem, int numBanks, int loadLatency)
    : mem(mem), numBanks(numBanks), loadLatency(loadLatency),
      bankClaimed(static_cast<size_t>(numBanks), false)
{
    ps_assert(numBanks > 0, "need at least one memory bank");
    ps_assert(loadLatency >= 1, "load latency must be >= 1");
}

int
MemSystem::bankOf(Word addr) const
{
    return static_cast<int>(static_cast<uint32_t>(addr) %
                            static_cast<uint32_t>(numBanks));
}

void
MemSystem::beginCycle()
{
    bankClaimed.assign(static_cast<size_t>(numBanks), false);
}

bool
MemSystem::bankFree(Word addr) const
{
    return !bankClaimed[static_cast<size_t>(bankOf(addr))];
}

void
MemSystem::claimBank(Word addr)
{
    int bank = bankOf(addr);
    ps_assert(!bankClaimed[static_cast<size_t>(bank)],
              "bank %d claimed twice in one cycle", bank);
    bankClaimed[static_cast<size_t>(bank)] = true;
}

bool
MemSystem::inBounds(Word addr) const
{
    return addr >= 0 && static_cast<size_t>(addr) < mem.size();
}

PendingLoad
MemSystem::issueLoad(int node, Word addr, int32_t tag, int64_t cycle)
{
    Word value = inBounds(addr) ? mem[static_cast<size_t>(addr)] : 0;
    PendingLoad load{node, Token{value, tag}, cycle + loadLatency};
    pending.push_back(load);
    return load;
}

void
MemSystem::store(Word addr, Word value)
{
    if (inBounds(addr))
        mem[static_cast<size_t>(addr)] = value;
}

std::vector<PendingLoad>
MemSystem::takeCompletions(int64_t cycle)
{
    std::vector<PendingLoad> done;
    while (!pending.empty() && pending.front().readyCycle <= cycle) {
        done.push_back(pending.front());
        pending.pop_front();
    }
    return done;
}

} // namespace pipestitch::sim

#include "hierarchy/memsys.hh"

#include "common/log.hh"

namespace ccm
{

namespace
{

/** True for the modes that run the assist buffer. */
bool
hasAssistBuffer(AssistMode mode)
{
    return mode != AssistMode::None && mode != AssistMode::PseudoAssoc;
}

/** Bank selection: low line-address bits (paper: 8-way banking). */
unsigned
bankOf(const CacheGeometry &g, ByteAddr addr, unsigned banks)
{
    return static_cast<unsigned>((addr.value() >> g.offsetBits()) &
                                 (banks - 1));
}

} // namespace

Status
validate(const MemSysConfig &config)
{
    // The checks run in the order MemorySystem builds its members, so
    // the first failure is the one its constructor would die with.
    Status s = CacheGeometry::validate(config.l1Bytes, config.l1Assoc,
                                       config.lineBytes);
    if (s.isOk())
        s = CacheGeometry::validate(config.l2Bytes, config.l2Assoc,
                                    config.lineBytes);
    if (!s.isOk())
        return s;
    const CacheGeometry l1(config.l1Bytes, config.l1Assoc,
                           config.lineBytes);
    s = MissClassificationTable::validate(l1.numSets(),
                                          config.mctTagBits);
    if (s.isOk())
        s = MshrFile::validate(config.mshrs);
    if (s.isOk() && config.mode == AssistMode::PseudoAssoc)
        s = PseudoAssocCache::validate(l1);
    if (s.isOk() && hasAssistBuffer(config.mode))
        s = AssistBuffer::validate(config.bufEntries);
    if (s.isOk() && config.mode == AssistMode::PrefetchBuffer &&
        config.prefetch.kind == PrefetchKind::Rpt)
        s = RptPrefetcher::validate(config.prefetch.rptEntries);
    return s;
}

MemorySystem::MemorySystem(const MemSysConfig &config)
    : cfg(config),
      l1Geom(config.l1Bytes, config.l1Assoc, config.lineBytes),
      l2(CacheGeometry(config.l2Bytes, config.l2Assoc,
                       config.lineBytes)),
      mct_(l1Geom.numSets(), config.mctTagBits),
      nextLine(config.lineBytes),
      mshrs(config.mshrs),
      banks(config.l1Banks),
      bufReadPorts(config.bufReadPorts),
      bufWritePorts(config.bufWritePorts),
      bus(1)
{
    if (cfg.mode == AssistMode::PseudoAssoc) {
        pseudo = std::make_unique<PseudoAssocCache>(
            l1Geom, cfg.pseudoUseMct, cfg.mctTagBits);
    } else {
        l1 = std::make_unique<Cache>(l1Geom);
    }

    if (hasAssistBuffer(cfg.mode))
        buf = std::make_unique<AssistBuffer>(cfg.bufEntries,
                                             cfg.bufRepl);

    if (cfg.mode == AssistMode::PrefetchBuffer &&
        cfg.prefetch.kind == PrefetchKind::Rpt) {
        rpt = std::make_unique<RptPrefetcher>(cfg.prefetch.rptEntries);
    }

    if (cfg.mode == AssistMode::BypassBuffer) {
        if (cfg.exclude.algo == ExcludeAlgo::Mat)
            mat = std::make_unique<MemoryAccessTable>();
        if (cfg.exclude.algo == ExcludeAlgo::TysonPc)
            pcTable = std::make_unique<PcMissTable>();
        if (cfg.exclude.algo == ExcludeAlgo::CapacityHistory ||
            cfg.exclude.algo == ExcludeAlgo::ConflictHistory) {
            history = std::make_unique<MissHistoryTable>();
        }
    }
}

std::optional<Cycle>
MemorySystem::fetchLine(LineAddr line_addr, Cycle start,
                        bool is_prefetch)
{
    mshrs.expire(start);

    if (auto ready = mshrs.inFlight(line_addr))
        return *ready;   // merged into the in-flight miss

    if (mshrs.full()) {
        if (is_prefetch)
            return std::nullopt;  // "prefetches are discarded"
        Cycle wait = mshrs.earliestReady();
        if (wait > start) {
            st.mshrStallCycles += wait - start;
            start = wait;
        }
        mshrs.expire(start);
    }

    Cycle bus_start = bus.acquire(start, cfg.busCyclesPerTransfer);

    Cycle ready;
    if (l2.access(line_addr.asByte(), false)) {
        ++st.l2Hits;
        ready = bus_start + cfg.l2Latency;
    } else {
        ++st.l2Misses;
        l2.fill(line_addr.asByte(), false, false);
        ready = bus_start + cfg.memLatency;
    }

    mshrs.allocate(line_addr, ready);
    return ready;
}

void
MemorySystem::writeback(LineAddr line_addr, Cycle when)
{
    ++st.writebacks;
    bus.acquire(when, cfg.busCyclesPerTransfer);
    if (!l2.access(line_addr.asByte(), true))
        l2.fill(line_addr.asByte(), false, true);
}

void
MemorySystem::bufferInsert(LineAddr line_addr, BufSource source,
                           bool conflict_bit, bool dirty, Cycle ready,
                           Cycle when)
{
    bufWritePorts.acquire(when, 2);  // full line write: a port, 2 cyc
    BufEvicted disp = buf->insert(line_addr, source, conflict_bit,
                                  dirty, ready);
    if (disp.valid) {
        if (disp.source == BufSource::Prefetch && !disp.wasUsed)
            ++st.prefWasted;
        if (disp.dirty)
            writeback(disp.lineAddr, when);
    }
}

void
MemorySystem::fillL1(ByteAddr addr, bool miss_is_conflict,
                     bool is_store, Cycle when,
                     bool allow_victim_fill)
{
    banks.acquireUnit(bankOf(l1Geom, addr, cfg.l1Banks), when, 1);
    FillResult ev = l1->fill(addr, miss_is_conflict, is_store);
    if (!ev.valid)
        return;

    mct_.recordEviction(l1Geom.setOf(addr),
                        l1Geom.tagOf(ev.lineAddr));

    bool to_buffer = false;
    if (allow_victim_fill) {
        if (cfg.mode == AssistMode::VictimCache) {
            to_buffer = !cfg.victim.filterFills ||
                        filterSaysConflict(cfg.victim.filter,
                                           miss_is_conflict,
                                           ev.conflictBit);
        } else if (cfg.mode == AssistMode::Amb) {
            // AMB victim-caches conflict misses (out-conflict).
            to_buffer = miss_is_conflict;
        }
    }

    if (to_buffer) {
        ++st.victimFills;
        bufferInsert(ev.lineAddr, BufSource::Victim, ev.conflictBit,
                     ev.dirty, when, when);
    } else if (ev.dirty) {
        writeback(ev.lineAddr, when);
    }
}

void
MemorySystem::issuePrefetch(LineAddr line_addr, Cycle start)
{
    issuePrefetchLine(nextLine.nextLine(line_addr), start);
}

void
MemorySystem::issuePrefetchLine(LineAddr target, Cycle start)
{
    if (l1->probe(target.asByte()) || buf->find(target))
        return;
    if (mshrs.inFlight(target))
        return;

    auto ready = fetchLine(target, start, true);
    if (!ready) {
        ++st.prefDropped;
        nextLine.countDropped();
        return;
    }

    ++st.prefIssued;
    nextLine.countIssued();
    bufferInsert(target, BufSource::Prefetch, false, false, *ready,
                 start);
}

bool
MemorySystem::shouldExclude(ByteAddr pc, ByteAddr addr,
                            bool miss_is_conflict)
{
    switch (cfg.exclude.algo) {
      case ExcludeAlgo::TysonPc:
        return pcTable->shouldBypass(pc);
      case ExcludeAlgo::Mat: {
        const CacheLine *victim = l1->victimFor(addr);
        if (!victim)
            return false;   // empty way: no one to protect
        LineAddr victim_line =
            l1Geom.recompose(victim->tag, l1Geom.setOf(addr));
        return mat->shouldBypass(addr, victim_line);
      }
      case ExcludeAlgo::Capacity:
        return !miss_is_conflict;
      case ExcludeAlgo::Conflict:
        return miss_is_conflict;
      case ExcludeAlgo::CapacityHistory:
        return history->capacityHistory(addr);
      case ExcludeAlgo::ConflictHistory:
        return history->conflictHistory(addr);
    }
    ccm_panic("unreachable exclusion algorithm");
}

SetHistograms
MemorySystem::setHistograms() const
{
    SetHistograms h;
    if (!l1)
        return h;   // pseudo-associative mode: no conventional L1
    h.sets = l1Geom.numSets();
    h.l1Misses = l1->setMissHistogram();
    h.l1Evictions = l1->setEvictionHistogram();
    h.mctLookups = mct_.setLookupHistogram();
    h.mctConflicts = mct_.setConflictHistogram();
    return h;
}

AccessResult
MemorySystem::accessImpl(ByteAddr pc, ByteAddr addr, bool is_store,
                         Cycle now)
{
    ++st.accesses;
    if (is_store)
        ++st.stores;
    else
        ++st.loads;

    if (cfg.mode == AssistMode::PseudoAssoc)
        return accessPseudo(addr, is_store, now);

    if (mat)
        mat->recordAccess(addr);

    AccessResult out;
    unsigned bank = bankOf(l1Geom, addr, cfg.l1Banks);
    Cycle t0 = banks.acquireUnit(bank, now, 1);

    // The RPT is read and updated on *every* access (the structural
    // cost the paper contrasts with the misses-only MCT).
    std::optional<ByteAddr> rpt_target;
    if (rpt)
        rpt_target = rpt->observe(pc, addr);

    if (l1->access(addr, is_store)) {
        ++st.l1Hits;
        out.l1Hit = true;
        out.ready = t0 + cfg.l1HitLatency;
        if (pcTable)
            pcTable->recordOutcome(pc, false);
        if (rpt_target)
            issuePrefetchLine(l1Geom.lineOf(*rpt_target), t0 + 1);
        return out;
    }

    // ---- L1 miss ----------------------------------------------------
    ++st.l1Misses;
    const LineAddr line = l1Geom.lineOf(addr);
    const SetIndex set = l1Geom.setOf(addr);
    const Tag tag = l1Geom.tagOf(addr);

    const MissClass miss_class = mct_.classify(set, tag);
    const bool is_conflict = isConflict(miss_class);
    out.missClass = miss_class;
    if (is_conflict)
        ++st.conflictMisses;
    else
        ++st.capacityMisses;

    if (history)
        history->recordMiss(addr, miss_class);
    if (pcTable)
        pcTable->recordOutcome(pc, true);

    // ---- Assist-buffer probe ----------------------------------------
    if (buf) {
        if (BufEntry *e = buf->find(line)) {
            out.bufHit = true;
            Cycle port = bufReadPorts.acquire(t0 + 1, 1);
            Cycle ready = std::max(port + cfg.bufHitLatency, e->ready);
            out.ready = ready;

            switch (e->source) {
              case BufSource::Victim: {
                buf->recordHit(*e);
                ++st.bufHitVictim;
                bool swap = cfg.mode == AssistMode::VictimCache;
                if (swap && cfg.victim.filterSwaps) {
                    const CacheLine *cand = l1->victimFor(addr);
                    bool cand_bit = cand && cand->conflictBit;
                    if (filterSaysConflict(cfg.victim.filter,
                                           is_conflict, cand_bit))
                        swap = false;
                }
                if (swap) {
                    // Line swap: both structures busy for 2 cycles.
                    ++st.swaps;
                    banks.acquireUnit(bank, ready, 2);
                    bufReadPorts.acquire(ready, 2);
                    bufWritePorts.acquire(ready, 2);
                    bool dirty = e->dirty || is_store;
                    buf->erase(line);
                    // A victim-buffer hit is a conflict near-miss by
                    // construction (the line left this set within the
                    // last bufEntries evictions), so the promoted
                    // line's conflict bit is set even when the
                    // one-entry MCT has since been overwritten.
                    FillResult ev = l1->fill(addr, true, dirty);
                    if (ev.valid) {
                        mct_.recordEviction(set,
                                            l1Geom.tagOf(ev.lineAddr));
                        ++st.victimFills;
                        bufferInsert(ev.lineAddr, BufSource::Victim,
                                     ev.conflictBit, ev.dirty, ready,
                                     ready);
                    }
                } else {
                    if (is_store)
                        e->dirty = true;
                }
                break;
              }
              case BufSource::Prefetch: {
                buf->recordHit(*e);
                ++st.bufHitPrefetch;
                ++st.prefUseful;
                nextLine.countUseful();
                bool exclude_transition =
                    cfg.mode == AssistMode::Amb &&
                    cfg.amb.excludeCapacity;
                if (exclude_transition) {
                    // Leave in the buffer, re-marked as an exclusion
                    // line (paper §5.5 transition).
                    e->source = BufSource::Bypass;
                    if (is_store)
                        e->dirty = true;
                } else {
                    // Promote into the cache.  Bandwidth is charged
                    // at initiation time (see ResourcePool); the
                    // data-arrival wait is already in `ready`.
                    bool dirty = e->dirty || is_store;
                    buf->erase(line);
                    bufReadPorts.acquire(port, 2);
                    bool allow_victim =
                        cfg.mode == AssistMode::Amb &&
                        cfg.amb.victimConflicts;
                    fillL1(addr, is_conflict, dirty, port,
                           allow_victim);
                }
                // Stream onward (charged at initiation time).  The
                // RPT engine issues from its own per-access
                // observations instead of chaining.
                bool chains =
                    (cfg.mode == AssistMode::PrefetchBuffer &&
                     cfg.prefetch.kind == PrefetchKind::NextLine) ||
                    (cfg.mode == AssistMode::Amb &&
                     cfg.amb.prefetchCapacity);
                if (chains)
                    issuePrefetch(line, port);
                else if (rpt_target)
                    issuePrefetchLine(l1Geom.lineOf(*rpt_target),
                                      port);
                break;
              }
              case BufSource::Bypass: {
                buf->recordHit(*e);
                ++st.bufHitBypass;
                if (is_store)
                    e->dirty = true;
                break;
              }
            }
            return out;
        }
    }

    // ---- Full miss: fetch from L2/memory ----------------------------
    bool exclude = false;
    if (cfg.mode == AssistMode::BypassBuffer)
        exclude = shouldExclude(pc, addr, is_conflict);
    else if (cfg.mode == AssistMode::Amb)
        exclude = cfg.amb.excludeCapacity && !is_conflict;

    // Capture the would-be victim's conflict bit before the fill so
    // the In/And/Or prefetch filters can see the eviction side.
    const CacheLine *would_evict = l1->victimFor(addr);
    const bool evicted_bit = would_evict && would_evict->conflictBit;

    auto fetched = fetchLine(line, t0 + 1, false);
    Cycle ready = *fetched;  // demand fetches always complete
    out.ready = ready;
    out.l2Hit = false;

    if (exclude) {
        ++st.excluded;
        bufferInsert(line, BufSource::Bypass, is_conflict, is_store,
                     ready, t0 + 1);
        if (cfg.exclude.mctInsertFix)
            mct_.recordEviction(set, tag);
    } else {
        bool allow_victim =
            cfg.mode == AssistMode::VictimCache ||
            (cfg.mode == AssistMode::Amb && cfg.amb.victimConflicts);
        fillL1(addr, is_conflict, is_store, t0 + 1, allow_victim);
    }

    // ---- Prefetch trigger -------------------------------------------
    if (cfg.mode == AssistMode::PrefetchBuffer) {
        bool blocked =
            cfg.prefetch.filtered &&
            filterSaysConflict(cfg.prefetch.filter, is_conflict,
                               evicted_bit);
        if (blocked) {
            ++st.prefFiltered;
            nextLine.countFiltered();
        } else if (cfg.prefetch.kind == PrefetchKind::NextLine) {
            // Charged at issue time, after the demand transfer, so
            // speculative traffic queues behind demand traffic.
            issuePrefetch(line, t0 + 1);
        } else if (rpt_target) {
            issuePrefetchLine(l1Geom.lineOf(*rpt_target), t0 + 1);
        }
    } else if (cfg.mode == AssistMode::Amb &&
               cfg.amb.prefetchCapacity && !is_conflict) {
        issuePrefetch(line, t0 + 1);
    }

    return out;
}

AccessResult
MemorySystem::accessPseudo(ByteAddr addr, bool is_store, Cycle now)
{
    AccessResult out;
    unsigned bank = bankOf(l1Geom, addr, cfg.l1Banks);
    Cycle t0 = banks.acquireUnit(bank, now, 1);

    PseudoAccess res = pseudo->access(addr, is_store);
    switch (res.kind) {
      case PseudoAccess::Kind::PrimaryHit:
        ++st.l1Hits;
        ++st.pseudoPrimaryHits;
        out.l1Hit = true;
        out.ready = t0 + cfg.l1HitLatency;
        return out;

      case PseudoAccess::Kind::SecondaryHit:
        ++st.l1Hits;
        ++st.pseudoSecondaryHits;
        ++st.swaps;
        out.l1Hit = true;
        out.ready = t0 + cfg.l1HitLatency + cfg.pseudoSecondaryPenalty;
        banks.acquireUnit(bank, out.ready, 2);  // the swap
        return out;

      default:
        break;
    }

    ++st.l1Misses;
    if (res.wasConflict)
        ++st.conflictMisses;
    else
        ++st.capacityMisses;
    out.missClass = res.wasConflict ? MissClass::Conflict
                                    : MissClass::Capacity;
    Cycle probe_done = t0 + cfg.l1HitLatency + cfg.pseudoSecondaryPenalty;
    auto fetched = fetchLine(l1Geom.lineOf(addr), probe_done, false);
    out.ready = *fetched;
    banks.acquireUnit(bank, probe_done, 1);  // the fill
    if (res.evictedValid && res.evictedDirty)
        writeback(res.evictedLineAddr, probe_done);

    st.pseudoOverrides = pseudo->replacementOverrides();
    return out;
}

} // namespace ccm

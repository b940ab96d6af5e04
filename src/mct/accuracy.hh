/**
 * @file
 * Confusion-matrix scorer comparing MCT classifications against the
 * oracle, producing the accuracy numbers of Figures 1 and 2.
 *
 * Following the paper, compulsory misses are grouped with capacity
 * misses on the oracle side ("we'll group compulsory and capacity
 * misses together and call them capacity misses").
 */

#ifndef CCM_MCT_ACCURACY_HH
#define CCM_MCT_ACCURACY_HH

#include <cstdint>

#include "common/stats.hh"
#include "mct/miss_class.hh"

namespace ccm
{

/** Per-miss agreement tally between the MCT and the oracle. */
class AccuracyScorer
{
  public:
    /** Record one classified miss. */
    void
    record(MissClass mct, MissClass oracle)
    {
        bool mct_conf = isConflict(mct);
        bool ora_conf = isConflict(oracle);
        if (ora_conf)
            ++(mct_conf ? confAsConf : confAsCap);
        else
            ++(mct_conf ? capAsConf : capAsCap);
        if (oracle == MissClass::Compulsory)
            ++compulsory;
    }

    /** % of oracle-conflict misses the MCT also called conflict. */
    double
    conflictAccuracy() const
    {
        return pct(confAsConf, confAsConf + confAsCap);
    }

    /** % of oracle-capacity misses the MCT also called capacity. */
    double
    capacityAccuracy() const
    {
        return pct(capAsCap, capAsCap + capAsConf);
    }

    /** % of all misses classified in agreement with the oracle. */
    double
    overallAccuracy() const
    {
        return pct(confAsConf + capAsCap, totalMisses());
    }

    std::uint64_t
    oracleConflicts() const
    {
        return confAsConf + confAsCap;
    }

    std::uint64_t
    oracleCapacities() const
    {
        return capAsCap + capAsConf;
    }

    std::uint64_t compulsoryMisses() const { return compulsory; }

    std::uint64_t
    totalMisses() const
    {
        return confAsConf + confAsCap + capAsConf + capAsCap;
    }

    /** Fraction of misses that are conflicts per the oracle. */
    double
    conflictFraction() const
    {
        return safeRatio(oracleConflicts(), totalMisses());
    }

    /** Pool another scorer's tallies into this one. */
    void
    merge(const AccuracyScorer &other)
    {
        confAsConf += other.confAsConf;
        confAsCap += other.confAsCap;
        capAsConf += other.capAsConf;
        capAsCap += other.capAsCap;
        compulsory += other.compulsory;
    }

    // Raw confusion-matrix cells (serialization).
    std::uint64_t conflictAsConflict() const { return confAsConf; }
    std::uint64_t conflictAsCapacity() const { return confAsCap; }
    std::uint64_t capacityAsConflict() const { return capAsConf; }
    std::uint64_t capacityAsCapacity() const { return capAsCap; }

    void
    clear()
    {
        confAsConf = confAsCap = capAsConf = capAsCap = compulsory = 0;
    }

  private:
    std::uint64_t confAsConf = 0;  ///< oracle conflict, MCT conflict
    std::uint64_t confAsCap = 0;   ///< oracle conflict, MCT capacity
    std::uint64_t capAsConf = 0;   ///< oracle capacity, MCT conflict
    std::uint64_t capAsCap = 0;    ///< oracle capacity, MCT capacity
    std::uint64_t compulsory = 0;  ///< subset of oracle capacity
};

} // namespace ccm

#endif // CCM_MCT_ACCURACY_HH

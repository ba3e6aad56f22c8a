#include "obs/site_metrics.h"

#include <algorithm>
#include <cstdio>

namespace amnesiac {

void
SiteCollector::onRcmp(const RcmpEvent &event)
{
    if (event.pc >= _sites.size())
        _sites.resize(std::size_t{event.pc} + 1);
    SiteStats &s = _sites[event.pc];
    s.pc = event.pc;
    s.sliceId = event.sliceId;
    s.sliceInstrs += event.sliceInstrs;
    if (event.fired) {
        ++s.fires;
        s.estDeltaNj += event.loadNj - event.estSliceNj;
        s.realDeltaNj += event.loadNj - event.sliceNj;
    } else {
        ++s.fallbacks;
        if (event.histMissAbort)
            ++s.histMissAborts;
        if (event.sfileAbort)
            ++s.sfileAborts;
    }
    // A mispredict is a verdict contradicted by actual residence: the
    // predictor said "miss" for an L1-resident line or "hit" for a
    // non-L1 one. Counted on every predictor-consulted instance, fired
    // or not.
    if (event.predictorUsed) {
        bool actualMiss = event.residence != MemLevel::L1;
        if (event.predictedMiss != actualMiss)
            ++s.mispredicts;
    }
}

std::vector<SiteStats>
SiteCollector::sites() const
{
    std::vector<SiteStats> out;
    for (const SiteStats &stats : _sites)
        if (stats.instances() > 0)
            out.push_back(stats);
    return out;
}

std::string
renderSiteReport(const std::vector<SiteStats> &sites,
                 const std::string &title)
{
    std::vector<SiteStats> ranked = sites;
    std::sort(ranked.begin(), ranked.end(),
              [](const SiteStats &a, const SiteStats &b) {
                  if (a.realDeltaNj != b.realDeltaNj)
                      return a.realDeltaNj > b.realDeltaNj;
                  return a.pc < b.pc;
              });

    std::string out;
    char line[256];
    if (!title.empty()) {
        out += "# ";
        out += title;
        out += "\n";
    }
    std::snprintf(line, sizeof(line),
                  "%8s %6s %10s %10s %9s %9s %9s %10s %12s %12s\n", "pc",
                  "slice", "fires", "fallbacks", "histMiss", "sfileAbt",
                  "mispred", "instrs", "est-dnJ", "real-dnJ");
    out += line;

    SiteStats total;
    for (const SiteStats &s : ranked) {
        std::snprintf(line, sizeof(line),
                      "%8u %6u %10llu %10llu %9llu %9llu %9llu %10llu "
                      "%12.3f %12.3f\n",
                      s.pc, s.sliceId,
                      static_cast<unsigned long long>(s.fires),
                      static_cast<unsigned long long>(s.fallbacks),
                      static_cast<unsigned long long>(s.histMissAborts),
                      static_cast<unsigned long long>(s.sfileAborts),
                      static_cast<unsigned long long>(s.mispredicts),
                      static_cast<unsigned long long>(s.sliceInstrs),
                      s.estDeltaNj, s.realDeltaNj);
        out += line;
        total.fires += s.fires;
        total.fallbacks += s.fallbacks;
        total.histMissAborts += s.histMissAborts;
        total.sfileAborts += s.sfileAborts;
        total.mispredicts += s.mispredicts;
        total.sliceInstrs += s.sliceInstrs;
        total.estDeltaNj += s.estDeltaNj;
        total.realDeltaNj += s.realDeltaNj;
    }
    std::snprintf(line, sizeof(line),
                  "%8s %6s %10llu %10llu %9llu %9llu %9llu %10llu "
                  "%12.3f %12.3f\n",
                  "total", "",
                  static_cast<unsigned long long>(total.fires),
                  static_cast<unsigned long long>(total.fallbacks),
                  static_cast<unsigned long long>(total.histMissAborts),
                  static_cast<unsigned long long>(total.sfileAborts),
                  static_cast<unsigned long long>(total.mispredicts),
                  static_cast<unsigned long long>(total.sliceInstrs),
                  total.estDeltaNj, total.realDeltaNj);
    out += line;
    return out;
}

}  // namespace amnesiac

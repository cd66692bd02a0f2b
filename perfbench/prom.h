//===- perfbench/prom.h - Parser for one /metrics scrape ----------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads the Prometheus text page `awdit serve --metrics-port` renders
/// into a map from series (metric name plus its label block, verbatim) to
/// value, and estimates a quantile from a histogram's cumulative buckets.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_PERFBENCH_PROM_H
#define AWDIT_PERFBENCH_PROM_H

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace awdit::perfbench {

using PromSeries = std::map<std::string, double, std::less<>>;

/// Parses `name[{labels}] value` lines; comments, blank lines and lines
/// whose value is not a number are skipped.
inline PromSeries parsePromText(std::string_view Text) {
  PromSeries Out;
  while (!Text.empty()) {
    size_t Eol = Text.find('\n');
    std::string_view Line = Text.substr(0, Eol);
    Text = Eol == std::string_view::npos ? std::string_view()
                                         : Text.substr(Eol + 1);
    if (!Line.empty() && Line.back() == '\r')
      Line.remove_suffix(1);
    if (Line.empty() || Line[0] == '#')
      continue;
    // The label block may hold spaces inside quoted values; the value
    // starts after the closing brace, or after the name when unlabeled.
    size_t Brace = Line.find('{');
    size_t KeyEnd = Brace == std::string_view::npos
                        ? Line.find(' ')
                        : Line.find("} ", Brace);
    if (KeyEnd == std::string_view::npos)
      continue;
    if (Brace != std::string_view::npos)
      ++KeyEnd;
    std::string Value(Line.substr(KeyEnd + 1));
    char *End = nullptr;
    double V = std::strtod(Value.c_str(), &End);
    if (End == Value.c_str())
      continue;
    Out[std::string(Line.substr(0, KeyEnd))] = V;
  }
  return Out;
}

/// The value of \p Key, or \p Def when the scrape lacks it.
inline double promValue(const PromSeries &S, std::string_view Key,
                        double Def = 0) {
  auto It = S.find(Key);
  return It == S.end() ? Def : It->second;
}

/// The upper bound of the first bucket of histogram \p Name whose
/// cumulative count reaches quantile \p Q (0 when the histogram is empty).
/// Only the bucket edges the page renders are visible, so this is an upper
/// bound, as coarse as the page's buckets.
inline double promHistogramQuantile(const PromSeries &S,
                                    const std::string &Name, double Q) {
  std::string Prefix = Name + "_bucket{le=\"";
  std::vector<std::pair<double, double>> Buckets; // (upper, cumulative)
  for (auto It = S.lower_bound(Prefix);
       It != S.end() && It->first.compare(0, Prefix.size(), Prefix) == 0;
       ++It) {
    std::string Le = It->first.substr(Prefix.size());
    Le = Le.substr(0, Le.find('"'));
    double Upper = Le == "+Inf" ? 1e300 : std::strtod(Le.c_str(), nullptr);
    Buckets.push_back({Upper, It->second});
  }
  std::sort(Buckets.begin(), Buckets.end());
  if (Buckets.empty() || Buckets.back().second <= 0)
    return 0;
  double Want = Q * Buckets.back().second;
  for (auto [Upper, Cum] : Buckets)
    if (Cum >= Want)
      return Upper;
  return Buckets.back().first;
}

} // namespace awdit::perfbench

#endif // AWDIT_PERFBENCH_PROM_H

#include "churn/interval_timeline.h"

#include <algorithm>

#include "util/parallel_for.h"

namespace resmodel::churn {

namespace {

IntervalTimeline generate_impl(std::span<const synth::AvailabilityParams> params,
                               bool shared_params, std::size_t host_count,
                               double start_day, double end_day, util::Rng& rng,
                               synth::StartMode mode, int threads) {
  // Validate up front (one model per distinct param set is built again in
  // the fill loop), so bad params fail before any stream is forked or any
  // host is filled.
  if (shared_params) {
    params[0].validate();
  } else {
    for (const synth::AvailabilityParams& p : params) p.validate();
  }
  // Fork serially, in host order: host h's stream depends only on the
  // caller's rng state and h, never on which thread fills it.
  std::vector<util::Rng> host_rngs;
  host_rngs.reserve(host_count);
  for (std::size_t i = 0; i < host_count; ++i) host_rngs.push_back(rng.fork());

  // Interval sampling is ~a hundred distribution draws per host; chunks of
  // 256 keep claim traffic negligible without starving the pool. Each
  // host's stream was forked above, so any thread may fill any host.
  std::vector<std::vector<synth::AvailabilityInterval>> per_host(host_count);
  constexpr std::size_t kChunk = 256;
  util::parallel_for(
      (host_count + kChunk - 1) / kChunk, threads, [&](std::size_t chunk) {
        const std::size_t begin = chunk * kChunk;
        const std::size_t end = std::min(host_count, begin + kChunk);
        for (std::size_t i = begin; i < end; ++i) {
          const synth::AvailabilityModel model(
              shared_params ? params[0] : params[i]);
          per_host[i] = model.generate(start_day, end_day, host_rngs[i], mode);
        }
      });
  return IntervalTimeline::from_intervals(per_host, start_day, end_day);
}

}  // namespace

IntervalTimeline IntervalTimeline::generate(
    const synth::AvailabilityModel& model, std::size_t host_count,
    double start_day, double end_day, util::Rng& rng, synth::StartMode mode,
    int threads) {
  const synth::AvailabilityParams params = model.params();
  return generate_impl({&params, 1}, /*shared_params=*/true, host_count,
                       start_day, end_day, rng, mode, threads);
}

IntervalTimeline IntervalTimeline::generate(
    std::span<const synth::AvailabilityParams> params, double start_day,
    double end_day, util::Rng& rng, synth::StartMode mode, int threads) {
  return generate_impl(params, /*shared_params=*/false, params.size(),
                       start_day, end_day, rng, mode, threads);
}

IntervalTimeline IntervalTimeline::from_intervals(
    const std::vector<std::vector<synth::AvailabilityInterval>>& per_host,
    double start_day, double end_day) {
  IntervalTimeline timeline;
  timeline.start_ = start_day;
  timeline.end_ = end_day;
  timeline.offsets_.resize(per_host.size() + 1);
  std::uint64_t total = 0;
  for (std::size_t h = 0; h < per_host.size(); ++h) {
    timeline.offsets_[h] = total;
    total += per_host[h].size();
  }
  timeline.offsets_[per_host.size()] = total;
  timeline.starts_.resize(total);
  timeline.ends_.resize(total);
  timeline.cum_ends_.resize(total);
  for (std::size_t h = 0; h < per_host.size(); ++h) {
    std::uint64_t at = timeline.offsets_[h];
    double accrued = 0.0;
    for (const synth::AvailabilityInterval& interval : per_host[h]) {
      timeline.starts_[at] = interval.start_day;
      timeline.ends_[at] = interval.end_day;
      accrued += interval.end_day - interval.start_day;
      timeline.cum_ends_[at] = accrued;
      ++at;
    }
  }
  return timeline;
}

std::size_t IntervalTimeline::advance(std::size_t host,
                                      double day) const noexcept {
  const double* lo = ends_.data() + offsets_[host];
  const double* hi = ends_.data() + offsets_[host + 1];
  // First interval whose (exclusive) end lies beyond `day`: either the
  // one containing `day` or the next one to come.
  return static_cast<std::size_t>(std::upper_bound(lo, hi, day) - lo);
}

double IntervalTimeline::next_on(std::size_t host, double day) const noexcept {
  if (day >= end_) return day;  // beyond-horizon: permanently ON
  const std::size_t i = advance(host, day);
  if (i == interval_count(host)) return end_;
  const double start = starts_[offsets_[host] + i];
  return start <= day ? day : start;
}

double IntervalTimeline::fraction(std::size_t host, double lo,
                                  double hi) const noexcept {
  if (!(hi > lo)) return 0.0;
  double covered = 0.0;
  const std::span<const double> s = starts(host);
  const std::span<const double> e = ends(host);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double a = std::max(s[i], lo);
    const double b = std::min(e[i], hi);
    if (b > a) covered += b - a;
  }
  return covered / (hi - lo);
}

std::vector<synth::AvailabilityInterval> IntervalTimeline::host_intervals(
    std::size_t host) const {
  std::vector<synth::AvailabilityInterval> intervals;
  const std::span<const double> s = starts(host);
  const std::span<const double> e = ends(host);
  intervals.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    intervals.push_back({s[i], e[i]});
  }
  return intervals;
}

}  // namespace resmodel::churn

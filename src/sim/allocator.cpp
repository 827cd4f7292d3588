#include "sim/allocator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "backend/kernels.h"
#include "util/parallel_for.h"

namespace resmodel::sim {

namespace {

/// A preference entry packs a 32-bit monotone sort key (high half) with
/// the host index (low half), so ascending uint64 order IS "descending
/// score, then ascending host index" — one integer compare, 8-byte radix
/// scatters, and the deterministic tie-break built into the value.
///
/// The key transform is backend::descending_key (kernels.h): the classic
/// sign-flip transform, complemented, so *ascending* unsigned order is
/// *descending* float(score) order. double->float rounding is monotone,
/// so equal doubles always share a key and unequal doubles can only
/// collide when they round to the same float — those rare runs are
/// repaired by refine_ties() against the exact scores. The fused
/// score+pack sweep itself is backend::score_pack.
constexpr std::uint64_t kIndexMask = 0xFFFFFFFFull;

/// Re-sorts every run of equal 32-bit keys by the exact rule (descending
/// double score, ascending host index). Within a run the packed low
/// halves are the indices, so once scores tie the plain uint64 compare
/// finishes the job.
void refine_ties(std::vector<std::uint64_t>& pref, const double* scores) {
  const std::size_t n = pref.size();
  std::size_t run = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (i < n && (pref[i] >> 32) == (pref[run] >> 32)) continue;
    if (i - run > 1) {
      std::sort(pref.begin() + run, pref.begin() + i,
                [scores](std::uint64_t x, std::uint64_t y) {
                  const double sx = scores[x & kIndexMask];
                  const double sy = scores[y & kIndexMask];
                  if (sx != sy) return sx > sy;
                  return x < y;
                });
    }
    run = i;
  }
}

/// Below this size a comparison sort beats the radix passes' histogram
/// setup.
constexpr std::size_t kRadixCutoff = 4096;

/// Sorts the packed preference entries ascending (= descending score,
/// ascending index). Large inputs take a stable LSD radix sort over the
/// two 16-bit digits of the key half — the low (index) half never needs
/// a pass because entries enter in ascending host index and stable
/// scatters keep them that way.
void sort_preferences(std::vector<std::uint64_t>& pref, const double* scores) {
  const std::size_t n = pref.size();
  if (n < kRadixCutoff) {
    std::sort(pref.begin(), pref.end());
    refine_ties(pref, scores);
    return;
  }

  constexpr int kDigitBits = 16;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr int kKeyShift = 32;
  constexpr int kPasses = 2;
  std::vector<std::uint64_t> scratch(n);
  std::vector<std::uint32_t> hist(kPasses * kBuckets, 0);

  // Both histograms in one scan.
  std::uint32_t* hist_lo = hist.data();
  std::uint32_t* hist_hi = hist.data() + kBuckets;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = pref[i] >> kKeyShift;
    ++hist_lo[key & (kBuckets - 1)];
    ++hist_hi[key >> kDigitBits];
  }

  std::vector<std::uint64_t>* src = &pref;
  std::vector<std::uint64_t>* dst = &scratch;
  for (int p = 0; p < kPasses; ++p) {
    std::uint32_t* counts =
        hist.data() + static_cast<std::size_t>(p) * kBuckets;
    // Constant digit => the pass is a no-op; skip the scatter.
    bool constant = false;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (counts[b] != 0) {
        constant = counts[b] == n;
        break;
      }
    }
    if (constant) continue;

    std::uint32_t running = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t c = counts[b];
      counts[b] = running;
      running += c;
    }
    const int shift = kKeyShift + p * kDigitBits;
    const std::uint64_t* s = src->data();
    std::uint64_t* d = dst->data();
    for (std::size_t i = 0; i < n; ++i) {
      d[counts[(s[i] >> shift) & (kBuckets - 1)]++] = s[i];
    }
    std::swap(src, dst);
  }
  if (src != &pref) {
    std::swap(pref, scratch);
  }
  refine_ties(pref, scores);
}

/// The shared greedy selection loop: applications take turns claiming the
/// best unassigned host from their sorted preference list. `index_at`
/// resolves preference position to host index; `utility_at` to the
/// Cobb-Douglas utility of that host.
template <typename IndexAt, typename UtilityAt>
AllocationResult select_round_robin(std::size_t a_count, std::size_t h_count,
                                    IndexAt index_at, UtilityAt utility_at) {
  AllocationResult result;
  result.total_utility.assign(a_count, 0.0);
  result.hosts_assigned.assign(a_count, 0);
  result.assignment.assign(h_count, a_count);  // sentinel: unassigned

  std::vector<std::size_t> cursor(a_count, 0);  // position in preference list
  std::size_t remaining = h_count;
  std::size_t turn = 0;
  while (remaining > 0) {
    const std::size_t a = turn % a_count;
    ++turn;
    std::size_t& pos = cursor[a];
    while (pos < h_count && result.assignment[index_at(a, pos)] != a_count) {
      ++pos;
    }
    if (pos >= h_count) continue;  // this app exhausted its list
    const std::size_t h = index_at(a, pos);
    result.assignment[h] = a;
    result.total_utility[a] += utility_at(a, pos);
    ++result.hosts_assigned[a];
    --remaining;
  }
  return result;
}

}  // namespace

AllocationResult allocate_round_robin(std::span<const ApplicationSpec> apps,
                                      const HostResourcesSoA& hosts,
                                      int threads,
                                      backend::Backend backend) {
  if (apps.empty()) {
    throw std::invalid_argument("allocate_round_robin: no applications");
  }
  const backend::ResolvedBackend rb = backend::resolve(backend);
  if (rb.arm == backend::Backend::kScalar) {
    // The scalar arm IS the retained pow-based oracle.
    const std::vector<HostResources> aos = hosts.to_hosts();
    return allocate_round_robin_reference(apps, aos);
  }
  const std::size_t a_count = apps.size();
  const std::size_t h_count = hosts.size();
  if (h_count > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "allocate_round_robin: host count exceeds 32-bit preference index");
  }

  // The adapters precompute the log columns once per host set; a
  // hand-assembled SoA without them gets local log columns here (the raw
  // columns are never copied).
  std::vector<double> local_logs[5];
  const double* log_c;
  const double* log_m;
  const double* log_i;
  const double* log_f;
  const double* log_d;
  if (hosts.logs_ready()) {
    log_c = hosts.log_cores.data();
    log_m = hosts.log_memory_mb.data();
    log_i = hosts.log_dhrystone_mips.data();
    log_f = hosts.log_whetstone_mips.data();
    log_d = hosts.log_disk_avail_gb.data();
  } else {
    local_logs[0] = log_utility_column(hosts.cores);
    local_logs[1] = log_utility_column(hosts.memory_mb);
    local_logs[2] = log_utility_column(hosts.dhrystone_mips);
    local_logs[3] = log_utility_column(hosts.whetstone_mips);
    local_logs[4] = log_utility_column(hosts.disk_avail_gb);
    log_c = local_logs[0].data();
    log_m = local_logs[1].data();
    log_i = local_logs[2].data();
    log_f = local_logs[3].data();
    log_d = local_logs[4].data();
  }

  // Score+sort phase, one independent task per application; the work
  // depends only on the app, so the result is thread-count invariant.
  std::vector<std::vector<std::uint64_t>> preference(a_count);
  std::vector<std::vector<double>> scores(a_count);
  util::parallel_for(a_count, threads, [&](std::size_t a) {
    const ApplicationSpec& app = apps[a];
    std::vector<double>& score = scores[a];
    std::vector<std::uint64_t>& pref = preference[a];
    score.resize(h_count);
    pref.resize(h_count);
    // The fused sweep: five contiguous columns in, one packed entry out.
    const backend::ScoreWeights weights{
        {app.alpha, app.beta, app.gamma, app.delta, app.epsilon}};
    backend::score_pack(log_c, log_m, log_i, log_f, log_d, weights,
                        h_count, score.data(), pref.data());
    sort_preferences(pref, score.data());
  });

  // exp only on the hosts an application actually wins.
  return select_round_robin(
      a_count, h_count,
      [&preference](std::size_t a, std::size_t pos) {
        return static_cast<std::size_t>(preference[a][pos] & kIndexMask);
      },
      [&preference, &scores](std::size_t a, std::size_t pos) {
        return std::exp(scores[a][preference[a][pos] & kIndexMask]);
      });
}

AllocationResult allocate_round_robin(std::span<const ApplicationSpec> apps,
                                      std::span<const HostResources> hosts) {
  if (apps.empty()) {
    throw std::invalid_argument("allocate_round_robin: no applications");
  }
  return allocate_round_robin(apps, HostResourcesSoA::from_hosts(hosts));
}

AllocationResult allocate_round_robin_reference(
    std::span<const ApplicationSpec> apps,
    std::span<const HostResources> hosts) {
  if (apps.empty()) {
    throw std::invalid_argument("allocate_round_robin: no applications");
  }
  const std::size_t a_count = apps.size();
  const std::size_t h_count = hosts.size();

  // The pre-SoA algorithm: a dense utility matrix (five std::pow per
  // pair) and per-application comparator sorts of index arrays, with the
  // host-index tie-break the SoA path guarantees.
  std::vector<std::vector<double>> utility(a_count,
                                           std::vector<double>(h_count));
  std::vector<std::vector<std::size_t>> preference(a_count);
  for (std::size_t a = 0; a < a_count; ++a) {
    for (std::size_t h = 0; h < h_count; ++h) {
      utility[a][h] = cobb_douglas_utility(apps[a], hosts[h]);
    }
    preference[a].resize(h_count);
    std::iota(preference[a].begin(), preference[a].end(), std::size_t{0});
    std::sort(preference[a].begin(), preference[a].end(),
              [&u = utility[a]](std::size_t x, std::size_t y) {
                if (u[x] != u[y]) return u[x] > u[y];
                return x < y;
              });
  }
  return select_round_robin(
      a_count, h_count,
      [&preference](std::size_t a, std::size_t pos) {
        return preference[a][pos];
      },
      [&preference, &utility](std::size_t a, std::size_t pos) {
        return utility[a][preference[a][pos]];
      });
}

}  // namespace resmodel::sim

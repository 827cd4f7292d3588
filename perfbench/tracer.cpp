#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unistd.h>
#include <utility>

namespace perfbench {

namespace store = resmodel::store;

namespace {

thread_local std::uint32_t t_current = 0;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

class TimingFile final : public store::WritableFile {
 public:
  TimingFile(std::unique_ptr<store::WritableFile> inner, TimingFileSystem& fs)
      : inner_(std::move(inner)), fs_(fs), tracer_(fs.tracer_) {}

  void append(const void* data, std::size_t n) override {
    const double t0 = tracer_.now();
    inner_->append(data, n);
    tracer_.add("store.append_s", tracer_.now() - t0);
    fs_.bytes_ += n;
    tracer_.add("store.bytes", static_cast<double>(n));
  }
  void sync() override {
    const double t0 = tracer_.now();
    inner_->sync();
    tracer_.add("store.fsync_s", tracer_.now() - t0);
  }
  void close() override {
    const double t0 = tracer_.now();
    inner_->close();
    tracer_.add("store.close_s", tracer_.now() - t0);
  }
  std::uint64_t logical_size() const noexcept override {
    return inner_->logical_size();
  }

 private:
  std::unique_ptr<store::WritableFile> inner_;
  TimingFileSystem& fs_;
  Tracer& tracer_;
};

Tracer::Tracer(std::string run_id)
    : run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::uint32_t Tracer::open(std::string name, std::string detail,
                           std::uint32_t parent) {
  const double start = now();
  const std::lock_guard lock(mu_);
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.name = std::move(name);
  span.detail = std::move(detail);
  span.start = start;
  span.thread = it->second;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  const double end = now();
  const std::lock_guard lock(mu_);
  spans_.at(id - 1).end = end;
}

void Tracer::add(const std::string& counter, double value) {
  const std::lock_guard lock(mu_);
  counters_[counter] += value;
}

void Tracer::set(const std::string& counter, double value) {
  const std::lock_guard lock(mu_);
  counters_[counter] = value;
}

void Tracer::write_json(const std::string& path) const {
  const std::lock_guard lock(mu_);
  // Self time: the span's duration minus the union of its children's
  // intervals clipped to it (children on worker threads may overlap).
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent - 1].emplace_back(s.start, s.end);
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file: " + path);
  out << "{\"run_id\": " << quoted(run_id_) << ",\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0.0) throw std::logic_error("span left open: " + s.name);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, reach);
      const double hi = std::min(e, s.end);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    out << (i ? ",\n" : "") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": " << quoted(s.name)
        << ", \"detail\": " << quoted(s.detail)
        << ", \"run\": " << quoted(run_id_) << ", \"thread\": " << s.thread
        << ", \"start_s\": " << number(s.start)
        << ", \"end_s\": " << number(s.end)
        << ", \"self_s\": " << number(s.end - s.start - covered) << "}";
  }
  out << "\n],\n\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "\n" : ",\n") << quoted(name) << ": " << number(value);
    first = false;
  }
  out << "\n}}\n";
  if (!out.flush()) throw std::runtime_error("cannot write trace file: " + path);
}

Scope::Scope(Tracer& tracer, std::string name, std::string detail)
    : Scope(tracer, std::move(name), std::move(detail), t_current) {}

Scope::Scope(Tracer& tracer, std::string name, std::string detail,
             std::uint32_t parent)
    : tracer_(tracer),
      id_(tracer.open(std::move(name), std::move(detail), parent)),
      saved_(t_current),
      start_(tracer.now()) {
  t_current = id_;
}

Scope::~Scope() {
  t_current = saved_;
  tracer_.close(id_);
}

double Scope::elapsed() const { return tracer_.now() - start_; }

std::unique_ptr<store::WritableFile> TimingFileSystem::create(
    const std::string& path) {
  return std::make_unique<TimingFile>(store::FileSystem::real().create(path),
                                      *this);
}

void TimingFileSystem::rename(const std::string& from, const std::string& to) {
  const double t0 = tracer_.now();
  store::FileSystem::real().rename(from, to);
  tracer_.add("store.rename_s", tracer_.now() - t0);
}

void TimingFileSystem::remove(const std::string& path) noexcept {
  store::FileSystem::real().remove(path);
}

std::uint64_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages_total = 0;
  unsigned long long pages_resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0;
  return pages_resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace perfbench

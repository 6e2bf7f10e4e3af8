#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace opwat_bench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void metric_set::set(std::string_view name, double value, std::string_view unit) {
  for (auto& m : items_)
    if (m.name == name) {
      m.value = value;
      m.unit = std::string{unit};
      return;
    }
  items_.push_back({std::string{name}, value, std::string{unit}});
}

std::string format_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("format_number: non-finite value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::uint32_t tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t tracer::open(std::string_view name, std::uint64_t group, std::int64_t parent,
                          std::int64_t start_ns) {
  const std::lock_guard lock{mu_};
  if (spans_.size() >= k_capacity) {
    ++dropped_;
    return -1;
  }
  if (spans_.capacity() == 0) spans_.reserve(1 << 16);
  spans_.push_back({intern(name), group, parent, start_ns, 0});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void tracer::close(std::int64_t index, std::int64_t end_ns) {
  if (index < 0) return;
  const std::lock_guard lock{mu_};
  spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
}

std::int64_t tracer::add(std::string_view name, std::uint64_t group, std::int64_t parent,
                         std::int64_t start_ns, std::int64_t end_ns) {
  const auto i = open(name, group, parent, start_ns);
  close(i, end_ns);
  return i;
}

std::size_t tracer::size() const {
  const std::lock_guard lock{mu_};
  return spans_.size();
}

std::uint64_t tracer::dropped() const {
  const std::lock_guard lock{mu_};
  return dropped_;
}

std::vector<self_time> tracer::self_times(std::string_view root) const {
  const std::lock_guard lock{mu_};
  // Children of each span, as intervals, and each span's root (a parent
  // is always opened, hence recorded, before its children).
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
  std::vector<std::size_t> root_of(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    root_of[i] = s.parent < 0 ? i : root_of[static_cast<std::size_t>(s.parent)];
    if (s.parent >= 0 && s.end_ns > 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }

  std::vector<self_time> out(names_.size());
  for (std::size_t n = 0; n < names_.size(); ++n) out[n].name = names_[n];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_ns <= 0 || names_[spans_[root_of[i]].name] != root) continue;
    // Union of the children's intervals, clipped to this span.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    for (const auto& [lo0, hi0] : iv) {
      const auto lo = std::max(lo0, s.start_ns);
      const auto hi = std::min(hi0, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const auto dur = s.end_ns - s.start_ns;
    auto& st = out[s.name];
    ++st.spans;
    st.total_ms += static_cast<double>(dur) / 1e6;
    st.self_ms += static_cast<double>(dur - covered) / 1e6;
  }
  return out;
}

std::vector<double> tracer::group_sums_ms(std::string_view name) const {
  const std::lock_guard lock{mu_};
  std::vector<std::uint64_t> groups;
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.end_ns <= 0 || names_[s.name] != name) continue;
    const auto it = std::find(groups.begin(), groups.end(), s.group);
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (it == groups.end()) {
      groups.push_back(s.group);
      out.push_back(ms);
    } else {
      out[static_cast<std::size_t>(it - groups.begin())] += ms;
    }
  }
  return out;
}

void tracer::write(const std::string& path) const {
  const std::lock_guard lock{mu_};
  std::ofstream f{path, std::ios::trunc};
  if (!f) throw std::runtime_error("cannot write span dump " + path);
  f << "index\tname\tgroup\tparent\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    f << i << '\t' << names_[s.name] << '\t' << s.group << '\t' << s.parent << '\t'
      << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

}  // namespace opwat_bench

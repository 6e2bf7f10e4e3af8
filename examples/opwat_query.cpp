// opwat_query: one-shot CLI client for a running opwatd — sends a single
// portal request over the binary protocol and prints the response as
// text (default) or JSON (--json).  The CI load-smoke lane uses it as
// the protocol smoke test before the load harness runs.
//
//   $ ./opwat_query --op epochs
//   $ ./opwat_query --op member --asn 64512
//   $ ./opwat_query --op rtt-band --lo 0 --hi 10 --ixp 3
//   $ ./opwat_query --op group-by --dim cls
//   $ ./opwat_query --op diff --epoch 2018-04 --to 2018-05
//   $ ./opwat_query --op stats --json
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>

#include "opwat/infer/types.hpp"
#include "opwat/net/ipv4.hpp"
#include "opwat/portal/client.hpp"
#include "opwat/util/json.hpp"
#include "opwat/util/strings.hpp"

namespace {

void usage(std::ostream& os, const char* argv0) {
  os << "usage: " << argv0
     << " [--connect HOST:PORT] --op OP [filters] [--json]\n"
        "\n"
        "  --connect H:P  server address (default 127.0.0.1:9417)\n"
        "  --op OP        ping | member | rtt-band | group-by | diff |\n"
        "                 stats | epochs\n"
        "  --asn N        member: the ASN to look up\n"
        "  --ixp N        member/rtt-band/group-by: world IXP id filter\n"
        "  --lo X --hi X  rtt-band: RTT window in ms\n"
        "  --dim D        group-by: ixp | asn | metro | cls | step\n"
        "  --cls N        group-by: peering-class filter (0..2)\n"
        "  --epoch S      epoch label (default: latest)\n"
        "  --to S         diff: the newer epoch\n"
        "  --limit N      row/group cap (default 100)\n"
        "  --retry N      self-healing mode: up to N attempts with\n"
        "                 reconnect + backoff on transient failures\n"
        "                 (default 1 = fail fast)\n"
        "  --repeat K     send the request K times (default 1); with\n"
        "                 --retry, prints the client's retry stats\n"
        "  --json         machine-readable output\n"
        "  --help         this text\n"
        "\n"
        "integer flags take plain decimal digits; a malformed or\n"
        "out-of-range value is a usage error (exit 2)\n";
}

/// The value of integer flag `flag`: plain decimal digits that fit T.
/// Anything else is a usage error, reported before connecting.
template <typename T>
T flag_value(const char* argv0, std::string_view flag, const char* text) {
  if (const auto v = opwat::util::parse_unsigned<T>(text)) return *v;
  std::cerr << argv0 << ": bad value for " << flag << ": '" << text << "'\n";
  usage(std::cerr, argv0);
  std::exit(2);
}

void print_json(const opwat::portal::response& r) {
  using opwat::portal::portal_errc;
  opwat::util::json_writer w;
  w.begin_object();
  w.key("status").value(opwat::portal::to_string(r.status));
  w.key("epoch").value(r.epoch);
  w.key("cache_hit").value(r.cache_hit);
  if (!r.message.empty()) w.key("message").value(r.message);
  w.key("total").value(r.total);
  if (!r.rows.empty()) {
    w.key("rows").begin_array();
    for (const auto& row : r.rows) {
      w.begin_object();
      w.key("ip").value(opwat::net::ipv4_addr{row.ip}.to_string());
      w.key("ixp").value(row.ixp);
      w.key("asn").value(row.asn);
      w.key("class").value(
          to_string(static_cast<opwat::infer::peering_class>(row.cls)));
      w.key("step").value(
          to_string(static_cast<opwat::infer::method_step>(row.step)));
      if (std::isnan(row.rtt_ms))
        w.key("rtt_ms").null();
      else
        w.key("rtt_ms").value(row.rtt_ms);
      w.end_object();
    }
    w.end_array();
  }
  if (!r.groups.empty()) {
    w.key("groups").begin_object();
    for (const auto& g : r.groups) w.key(g.key).value(g.count);
    w.end_object();
  }
  if (r.appeared + r.disappeared + r.reclassified > 0 || r.labels.size() == 2) {
    w.key("appeared").value(r.appeared);
    w.key("disappeared").value(r.disappeared);
    w.key("reclassified").value(r.reclassified);
  }
  if (!r.labels.empty()) {
    w.key("labels").begin_array();
    for (const auto& l : r.labels) w.value(l);
    w.end_array();
  }
  w.end_object();
  std::cout << w.str() << "\n";
}

void print_text(const opwat::portal::response& r) {
  using opwat::portal::portal_errc;
  std::cout << "status: " << opwat::portal::to_string(r.status);
  if (!r.message.empty()) std::cout << " (" << r.message << ")";
  std::cout << "\n";
  if (!r.epoch.empty()) std::cout << "epoch: " << r.epoch << "\n";
  if (r.cache_hit) std::cout << "cache: hit\n";
  if (r.total > 0 || !r.rows.empty())
    std::cout << "total: " << r.total << "\n";
  for (const auto& row : r.rows) {
    std::cout << "  " << opwat::net::ipv4_addr{row.ip}.to_string() << "  ixp "
              << row.ixp << "  AS" << row.asn << "  "
              << to_string(static_cast<opwat::infer::peering_class>(row.cls))
              << "  "
              << to_string(static_cast<opwat::infer::method_step>(row.step));
    if (!std::isnan(row.rtt_ms))
      std::cout << "  " << opwat::util::fmt_double(row.rtt_ms, 2) << " ms";
    std::cout << "\n";
  }
  for (const auto& g : r.groups)
    std::cout << "  " << g.key << ": " << g.count << "\n";
  if (r.appeared + r.disappeared + r.reclassified > 0 ||
      (r.labels.size() == 2 && r.groups.empty() && r.rows.empty()))
    std::cout << "appeared: " << r.appeared
              << "\ndisappeared: " << r.disappeared
              << "\nreclassified: " << r.reclassified << "\n";
  if (!r.labels.empty() && r.groups.empty() && r.rows.empty() &&
      r.labels.size() != 2)
    for (const auto& l : r.labels) std::cout << "  " << l << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opwat;
  using portal::group_dim;
  using portal::op_code;

  std::string connect = "127.0.0.1:9417";
  std::string op_name;
  portal::request req;
  bool json = false;
  std::uint32_t retry = 1;
  std::uint32_t repeat = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(std::cerr, argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--connect") {
      connect = next();
    } else if (arg == "--op") {
      op_name = next();
    } else if (arg == "--asn") {
      req.asn = flag_value<std::uint32_t>(argv[0], arg, next());
    } else if (arg == "--ixp") {
      req.ixp_id = flag_value<std::uint32_t>(argv[0], arg, next());
    } else if (arg == "--lo") {
      req.rtt_lo_ms = std::atof(next());
    } else if (arg == "--hi") {
      req.rtt_hi_ms = std::atof(next());
    } else if (arg == "--dim") {
      const std::string_view d = next();
      if (d == "ixp") req.dim = group_dim::ixp;
      else if (d == "asn") req.dim = group_dim::asn;
      else if (d == "metro") req.dim = group_dim::metro;
      else if (d == "cls") req.dim = group_dim::cls;
      else if (d == "step") req.dim = group_dim::step;
      else {
        usage(std::cerr, argv[0]);
        return 2;
      }
    } else if (arg == "--cls") {
      req.cls_filter = flag_value<std::uint8_t>(argv[0], arg, next());
    } else if (arg == "--epoch") {
      req.epoch = next();
    } else if (arg == "--to") {
      req.epoch_to = next();
    } else if (arg == "--limit") {
      req.limit = flag_value<std::uint32_t>(argv[0], arg, next());
    } else if (arg == "--retry") {
      retry = flag_value<std::uint32_t>(argv[0], arg, next());
      if (retry == 0) retry = 1;
    } else if (arg == "--repeat") {
      repeat = flag_value<std::uint32_t>(argv[0], arg, next());
      if (repeat == 0) repeat = 1;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout, argv[0]);
      return 0;
    } else {
      usage(std::cerr, argv[0]);
      return 2;
    }
  }

  if (op_name == "ping") req.op = op_code::ping;
  else if (op_name == "member") req.op = op_code::member;
  else if (op_name == "rtt-band") req.op = op_code::rtt_band;
  else if (op_name == "group-by") req.op = op_code::group_by;
  else if (op_name == "diff") req.op = op_code::diff;
  else if (op_name == "stats") req.op = op_code::stats;
  else if (op_name == "epochs") req.op = op_code::epochs;
  else {
    usage(std::cerr, argv[0]);
    return 2;
  }
  req.id = 1;

  const auto colon = connect.rfind(':');
  if (colon == std::string::npos) {
    std::cerr << argv[0] << ": --connect wants HOST:PORT\n";
    return 2;
  }
  const auto port =
      flag_value<std::uint16_t>(argv[0], "--connect", connect.c_str() + colon + 1);

  try {
    portal::client c{connect.substr(0, colon), port};
    portal::retry_config rcfg;
    rcfg.max_attempts = retry;
    portal::response resp;
    for (std::uint32_t k = 0; k < repeat; ++k) {
      req.id = k + 1;
      resp = retry > 1 ? c.call_retry(req, rcfg) : c.call(req);
      // Only the last response is printed; --repeat exists to exercise
      // the connection (chaos smoke), not to spam K copies of the same
      // rows.
    }
    if (json)
      print_json(resp);
    else
      print_text(resp);
    if (retry > 1) {
      const auto& rs = c.stats();
      std::cerr << "retry: attempts=" << rs.attempts
                << " retries=" << rs.retries
                << " reconnects=" << rs.reconnects
                << " transient_errors=" << rs.transient_errors
                << " giveups=" << rs.giveups << "\n";
    }
    return resp.status == portal::portal_errc::ok ? 0 : 1;
  } catch (const net::socket_error& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  } catch (const portal::protocol_error& e) {
    std::cerr << argv[0] << ": protocol error: " << e.what() << "\n";
    return 1;
  }
}

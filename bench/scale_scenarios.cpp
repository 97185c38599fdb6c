// scale_scenarios: throughput (controller slots/s) versus network size
// across the declarative example scenarios (examples/scenarios/*.json).
// Each spec is compiled through src/scenario, run single-threaded for
// --slots slots, and the row (nodes, base stations, users, sessions,
// wall_s, slots_per_s) lands in the "scale_scenarios" array of
// BENCH_sweep.json. The file is read-modify-written: bench_baseline's
// serial/parallel sweep section is preserved, only the scale_scenarios
// member is replaced. docs/PERFORMANCE.md explains the fields.
//
// --profile-dir DIR additionally captures a hierarchical span profile per
// scenario (obs/profile.hpp) at DIR/<name>.profile.json (+.collapsed), so
// the committed artifact decomposes WHERE each network size spends its
// slot — compare two scenarios' trees with tools/perf_report.
//
//   $ bench/scale_scenarios --dir examples/scenarios --slots 20
//   $ bench/scale_scenarios a.json b.json --out BENCH_sweep.json
//   $ bench/scale_scenarios --dir examples/scenarios --profile-dir bench/profiles
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/timer.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace {

namespace fs = std::filesystem;
using gc::obs::JsonValue;

struct Args {
  std::vector<std::string> files;
  std::string dir;
  int slots = 20;
  std::string out = "BENCH_sweep.json";
  std::string profile_dir;  // empty = no per-scenario profile capture
  // --fast: run with range pruning on (ModelConfig::link_prune, the one
  // performance lever; the S4 decomposition engages on its own Auto
  // threshold). Profiles land at <name>.fast.profile.json so the committed
  // baseline artifacts stay comparable (docs/PERFORMANCE.md "Scaling past
  // 500 nodes").
  bool fast = false;
};

bool parse_args(const std::vector<std::string>& argv, Args* out,
                std::string* error) {
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& flag = argv[i];
    if (flag == "--help") {
      *error =
          "usage: scale_scenarios [SPEC.json ...] [--dir DIR] [--slots N]\n"
          "                       [--out PATH] [--profile-dir DIR] [--fast]";
      return false;
    }
    if (flag == "--fast") {
      out->fast = true;
      continue;
    }
    if (flag.rfind("--", 0) != 0) {
      out->files.push_back(flag);
      continue;
    }
    if (i + 1 >= argv.size()) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string& v = argv[++i];
    if (flag == "--dir")
      out->dir = v;
    else if (flag == "--slots")
      out->slots = std::atoi(v.c_str());
    else if (flag == "--out")
      out->out = v;
    else if (flag == "--profile-dir")
      out->profile_dir = v;
    else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (out->slots < 1) {
    *error = "need --slots >= 1";
    return false;
  }
  if (!out->dir.empty()) {
    for (const auto& e : fs::directory_iterator(out->dir))
      if (e.path().extension() == ".json")
        out->files.push_back(e.path().string());
  }
  std::sort(out->files.begin(), out->files.end());
  if (out->files.empty()) {
    *error = "no scenario files (pass SPEC.json paths or --dir DIR)";
    return false;
  }
  return true;
}

// Minimal canonical dump of a parsed JsonValue, used to re-emit the
// sections of BENCH_sweep.json this bench does not own.
void dump(const JsonValue& v, std::string* out, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  switch (v.kind()) {
    case JsonValue::Kind::Null:
      *out += "null";
      break;
    case JsonValue::Kind::Bool:
      *out += v.as_bool() ? "true" : "false";
      break;
    case JsonValue::Kind::Number: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v.as_number());
      *out += buf;
      break;
    }
    case JsonValue::Kind::String:
      *out += "\"" + gc::obs::json_escape(v.as_string()) + "\"";
      break;
    case JsonValue::Kind::Array: {
      const auto& a = v.as_array();
      if (a.empty()) {
        *out += "[]";
        break;
      }
      *out += "[\n";
      for (std::size_t i = 0; i < a.size(); ++i) {
        *out += pad + "  ";
        dump(a[i], out, indent + 1);
        *out += i + 1 < a.size() ? ",\n" : "\n";
      }
      *out += pad + "]";
      break;
    }
    case JsonValue::Kind::Object: {
      const auto& o = v.as_object();
      if (o.empty()) {
        *out += "{}";
        break;
      }
      *out += "{\n";
      std::size_t i = 0;
      for (const auto& [k, val] : o) {
        *out += pad + "  \"" + gc::obs::json_escape(k) + "\": ";
        dump(val, out, indent + 1);
        *out += ++i < o.size() ? ",\n" : "\n";
      }
      *out += pad + "}";
      break;
    }
  }
}

struct Row {
  std::string name;
  int nodes = 0, bs = 0, users = 0, sessions = 0, slots = 0;
  bool fast = false;  // run with the --fast performance lever
  double wall_s = 0.0, slots_per_s = 0.0;
};

int count_allowed_links(const gc::core::NetworkModel& model) {
  int links = 0;
  for (int i = 0; i < model.num_nodes(); ++i)
    for (int j = 0; j < model.num_nodes(); ++j)
      if (i != j && model.link_allowed(i, j)) ++links;
  return links;
}

// When profile_dir is non-empty the run is wrapped in a SpanRecorder
// capture and the attribution tree lands at
// profile_dir/<name>.profile.json (+.collapsed) — one artifact per
// scenario, comparable across network sizes with tools/perf_report.
Row run_one(const std::string& path, int slots,
            const std::string& profile_dir, bool fast) {
  const gc::scenario::ScenarioSpec spec =
      gc::scenario::load_scenario_file(path);
  gc::sim::ScenarioConfig config = spec.config;
  if (fast) config.link_prune = true;
  const gc::core::NetworkModel model = config.build();
  gc::core::LyapunovController controller(model, 3.0,
                                         config.controller_options());
  gc::sim::SimOptions sim_opts;
  sim_opts.scenario_name = spec.name;
  sim_opts.scenario_hash = gc::scenario::scenario_hash(spec);
  auto& rec = gc::obs::SpanRecorder::instance();
  if (!profile_dir.empty()) {
    rec.enable();
    rec.drain();  // start each scenario's capture from an empty ring
  }
  const auto t0 = std::chrono::steady_clock::now();
  const gc::sim::Metrics m =
      gc::sim::run_simulation(model, controller, slots, sim_opts);
  const auto t1 = std::chrono::steady_clock::now();
  Row row;
  row.name = spec.name;
  row.fast = fast;
  row.nodes = model.num_nodes();
  row.bs = model.topology().num_base_stations();
  row.users = model.topology().num_users();
  row.sessions = model.num_sessions();
  row.slots = m.slots;
  row.wall_s = std::chrono::duration<double>(t1 - t0).count();
  row.slots_per_s = row.wall_s > 0.0 ? m.slots / row.wall_s : 0.0;
  if (!profile_dir.empty()) {
    const std::int64_t dropped = rec.dropped();
    gc::obs::Profile p = gc::obs::build_profile(rec.drain());
    p.meta.scenario = spec.name;
    p.meta.nodes = row.nodes;
    p.meta.links = count_allowed_links(model);
    if (const gc::net::LinkPruneMap* prune = model.pruned_links())
      p.meta.links_pruned = prune->pruned_links();
    p.meta.sessions = row.sessions;
    p.meta.slots = row.slots;
    p.meta.wall_s = row.wall_s;
    p.meta.slots_per_s = row.slots_per_s;
    p.meta.spans_dropped = dropped;
    const std::string base =
        (fs::path(profile_dir) /
         (spec.name + (fast ? ".fast.profile.json" : ".profile.json")))
            .string();
    gc::obs::write_text_atomic(base, p.to_json(), "profile");
    gc::obs::write_text_atomic(base + ".collapsed", p.to_collapsed(),
                               "collapsed profile");
    std::printf("  profile written to %s\n", base.c_str());
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args({argv + 1, argv + argc}, &args, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return error.rfind("usage:", 0) == 0 ? 0 : 2;
  }

  try {
    if (!args.profile_dir.empty()) fs::create_directories(args.profile_dir);
    std::vector<Row> rows;
    for (const std::string& f : args.files) {
      std::printf("running %s (%d slots)...\n", f.c_str(), args.slots);
      rows.push_back(run_one(f, args.slots, args.profile_dir, args.fast));
      const Row& r = rows.back();
      std::printf("  %s: %d nodes (%d BS + %d users), %d sessions, "
                  "%.3f s wall, %.2f slots/s\n",
                  r.name.c_str(), r.nodes, r.bs, r.users, r.sessions,
                  r.wall_s, r.slots_per_s);
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.nodes < b.nodes; });

    // Read-modify-write: keep every member of the existing BENCH_sweep.json
    // except "scale_scenarios", which this bench owns.
    std::string body = "{\n";
    {
      std::ifstream in(args.out);
      if (in.good()) {
        std::stringstream ss;
        ss << in.rdbuf();
        const JsonValue prior = gc::obs::json_parse(ss.str());
        for (const auto& [k, v] : prior.as_object()) {
          if (k == "scale_scenarios") continue;
          body += "  \"" + gc::obs::json_escape(k) + "\": ";
          dump(v, &body, 1);
          body += ",\n";
        }
      }
    }
    body += "  \"scale_scenarios\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "    {\"scenario\": \"%s\", \"nodes\": %d, \"bs\": %d, "
                    "\"users\": %d, \"sessions\": %d, \"slots\": %d, "
                    "\"fast\": %s,\n"
                    "     \"wall_s\": %.6f, \"slots_per_s\": %.3f}%s\n",
                    gc::obs::json_escape(r.name).c_str(), r.nodes, r.bs,
                    r.users, r.sessions, r.slots, r.fast ? "true" : "false",
                    r.wall_s, r.slots_per_s, i + 1 < rows.size() ? "," : "");
      body += buf;
    }
    body += "  ]\n}\n";

    std::ofstream out(args.out, std::ios::trunc);
    GC_CHECK_MSG(out.good(), "cannot open " << args.out);
    out << body;
    std::printf("written to %s\n", args.out.c_str());
    return 0;
  } catch (const gc::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const fs::filesystem_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

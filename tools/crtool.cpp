// crtool — command-line front end for the library, one command per job:
//
//   gen <family> <out.graph> [args...]   generate an instance
//   info <graph>                         metric + dimension summary
//   route <graph> <src> <dst> [eps]      route with every scheme
//   eval <graph> [samples] [eps]         stretch/storage table
//   trace <graph> <src> <dst> [eps] [out.json]
//                                        hop-by-hop annotated trace
//   audit [options]                      paper-invariant fuzz campaign
//   mine <graph> <out.pairs> [options]   worst-stretch (src, dest, scheme)
//                                        triples as a `server --source` file
//   build <graph> [eps] --out FILE [options]
//                                        the one snapshot writer: streams
//                                        each section as its scheme completes
//                                        (DESIGN.md §10); per-phase times and
//                                        peak RSS
//   load-info <snap>                     snapshot header + section table
//   serve <snap> [options]               per-scheme serve_batch replay from a
//                                        loaded snapshot (no metric), the
//                                        fingerprint gate; --obs-out scrapes
//                                        the telemetry registry
//   server <snap> [<snap2>] [options]    the queued serving engine: mmap
//                                        epoch loads, shedding/backpressure,
//                                        hot swap under load (--reload-every)
//
// usage() lists every option and `gen` family. The global options --threads
// and --metric may appear anywhere, and every option also accepts the
// --opt=value spelling; an option the command does not list, or a surplus
// argument, is a usage error.
//
// Exit codes: 0 success, 1 runtime error, 2 usage error (unknown command,
// option or family, surplus argument, malformed or out-of-range value).
//
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/snapshot_audit.hpp"

#include "audit/campaign.hpp"
#include "core/bits.hpp"
#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "gen/lower_bound_tree.hpp"
#include "graph/doubling.hpp"
#include "graph/metric.hpp"
#include "obs/mem.hpp"
#include "io/graph_io.hpp"
#include "io/snapshot.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json_export.hpp"
#include "obs/sharded.hpp"
#include "obs/spans.hpp"
#include "routing/naming.hpp"
#include "routing/simulator.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_scheme.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "runtime/serve.hpp"
#include "runtime/server.hpp"
#include "runtime/traffic.hpp"

using namespace compactroute;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  crtool gen <family> <out.graph> [args...]\n"
               "  crtool info <graph>\n"
               "  crtool route <graph> <src> <dst> [eps]\n"
               "  crtool eval <graph> [samples] [eps]\n"
               "  crtool trace <graph> <src> <dst> [eps] [out.json]\n"
               "  crtool audit [audit options]\n"
               "  crtool build <graph> [eps] --out FILE [build options]\n"
               "  crtool load-info <snap>\n"
               "  crtool serve <snap> [serve options]\n"
               "  crtool server <snap> [<snap2>] [server options]\n"
               "  crtool mine <graph> <out.pairs> [mine options]\n"
               "\n"
               "global options (anywhere on the command line; --opt=value\n"
               "also accepted):\n"
               "  --threads N          worker count for parallel construction\n"
               "                       and evaluation (N >= 1; CR_THREADS=N)\n"
               "  --metric dense|rowfree\n"
               "                       metric mode: all-pairs matrices\n"
               "                       (default), or bounded ball queries\n"
               "                       with no row storage\n"
               "eps must lie in (0, 1) (default 0.5); the labeled schemes use\n"
               "min(eps, 0.5).\n"
               "\n"
               "build options:\n"
               "  --out FILE           the snapshot to write (required); each\n"
               "                       section is streamed to it as its scheme\n"
               "                       completes and then freed, keeping peak\n"
               "                       memory at the live component\n"
               "  --schemes all|light  light = hierarchy + labeled-\n"
               "                       hierarchical + ni-simple only; the\n"
               "                       scale-free sections are written empty\n"
               "                       and load back as absent (default all)\n"
               "  --verify             reload --out, check the arena sections\n"
               "                       against a fresh compile, and run the\n"
               "                       corruption battery; exit 1 on failure\n"
               "build prints per-phase wall times and the process peak RSS.\n"
               "\n"
               "audit options (each list is comma-separated):\n"
               "  --families LIST      generator families to sweep (default:\n"
               "                       grid,holes,geometric,tree,spider,\n"
               "                       clusters,cliques,torus)\n"
               "  --n LIST             target instance sizes (default 48,96)\n"
               "  --seeds LIST         instance seeds (default 1,2,3)\n"
               "  --eps LIST           epsilon values (default 0.5)\n"
               "  --backends LIST      metric modes (default dense,rowfree)\n"
               "  --workers LIST       executor worker counts (default 1,4)\n"
               "  --budget-s S         wall-clock budget in seconds (S > 0);\n"
               "                       the sweep stops between cases\n"
               "                       (default: no budget, full grid)\n"
               "  --out FILE           write the JSON campaign report\n"
               "  --no-shrink          skip shrinking the first failure\n"
               "audit exits 0 when every check passes, 1 on any violation.\n"
               "\n"
               "serve options:\n"
               "  --scheme NAME        hier | sf | simple | sfni | all\n"
               "                       (default all)\n"
               "  --pairs N            route requests per scheme (default\n"
               "                       10000; N >= 1)\n"
               "  --seed S             request-batch seed (default 1)\n"
               "  --audit              rebuild the stack fresh from the\n"
               "                       snapshot's graph, require identical\n"
               "                       serve fingerprints, and run the\n"
               "                       corruption battery; exit 1 on failure\n"
               "  --out FILE           write the per-scheme serve report as JSON\n"
               "  --obs-out FILE       write the post-run telemetry scrape\n"
               "                       (merged sharded registry): Prometheus\n"
               "                       text if FILE ends in .prom, else JSON\n"
               "  --trace-out FILE     collect construction + sampled serve\n"
               "                       spans and write Chrome trace-event\n"
               "                       JSON (chrome://tracing, Perfetto)\n"
               "  --flight-out FILE    on audit/fingerprint failure, write\n"
               "                       the flight-recorder dump there instead\n"
               "                       of stderr\n"
               "serve never touches the metric backend: routing uses only the\n"
               "tables restored from the snapshot.\n"
               "\n"
               "server options:\n"
               "  --requests N         requests to push through the queues\n"
               "                       (default 20000; caps --source)\n"
               "  --source FILE|-      replay requests from FILE (or stdin):\n"
               "                       one 'src dest scheme' triple per line,\n"
               "                       scheme in {hier, sf, simple, sfni};\n"
               "                       default is a seeded mixed-scheme batch\n"
               "                       (`crtool mine` writes this format)\n"
               "  --seed S             synthetic request seed (default 1)\n"
               "  --traffic SHAPE      synthetic request shape: uniform\n"
               "                       (default), zipf (Zipf-skewed hotspot\n"
               "                       destinations over a seeded rank\n"
               "                       permutation), or incast (every request\n"
               "                       targets one seeded destination);\n"
               "                       worst-pair replay goes via --source\n"
               "  --zipf-skew S        Zipf exponent for --traffic zipf\n"
               "                       (finite, > 0; default 1.0)\n"
               "  --reload-every N     hot-swap the serving epoch every N\n"
               "                       requests; loads run on a background\n"
               "                       thread, alternating <snap2> and <snap>\n"
               "                       when both are given (default 0 = never)\n"
               "  --queue-depth N      bounded ring capacity per shard\n"
               "                       (default 1024)\n"
               "  --shards N           request shards (default: one per\n"
               "                       executor worker)\n"
               "  --backpressure       block full-shard submits until a pump\n"
               "                       drains room, instead of shedding\n"
               "  --no-mmap            load epochs from a heap read of the\n"
               "                       file instead of mmap\n"
               "  --out FILE           write the run summary as JSON\n"
               "  --obs-out FILE       write the post-run telemetry scrape\n"
               "                       (as for serve)\n"
               "server prints routes/s, p50/p99/p999 latency, shed and epoch-\n"
               "swap counts, and the delivered-request digest; both epochs'\n"
               "serve fingerprints are re-audited at every swap.\n"
               "\n"
               "mine options:\n"
               "  --samples N          seeded pairs routed per scheme\n"
               "                       (default 2000; N >= 1)\n"
               "  --keep K             worst pairs written (default 64)\n"
               "  --seed S             pair-sampling seed (default 1)\n"
               "  --eps E              scheme epsilon (default 0.5)\n"
               "mine builds the four-scheme stack, routes the sampled pairs,\n"
               "and writes the worst-stretch triples as a `server --source`\n"
               "replay file (stretch in a trailing comment per line).\n"
               "\n"
               "gen families: grid W H | torus W H | geometric N DIM K SEED |\n"
               "  spider ARMS LEN | clusters LEVELS FANOUT SPREAD SEED |\n"
               "  cliques NUM SIZE BRIDGE | tree N MAXW SEED | lbtree EPS N |\n"
               "  powerlaw N EDGES SEED | hyperbolic N ALPHA AVGDEG SEED |\n"
               "  astopo N CORE SEED\n"
               "\n"
               "trace prints one line per physical hop (phase tag, edge cost,\n"
               "header bits) for all four hop-by-hop schemes; the optional\n"
               "out.json captures the same traces machine-readably.\n");
  std::exit(2);
}

/// Strict numeric parsing: the whole token must be a number, else exit 2.
std::uint64_t parse_u64(const std::string& token, const char* what) {
  try {
    std::size_t pos = 0;
    if (token.empty() || token[0] == '-') throw std::invalid_argument(token);
    const unsigned long long v = std::stoull(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
    return v;
  } catch (const std::exception&) {
    std::fprintf(stderr, "malformed %s '%s' (expected a non-negative integer)\n\n",
                 what, token.c_str());
    usage();
  }
}

double parse_double(const std::string& token, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    // std::stod happily parses "nan", "inf", and overflowing literals; none
    // of those is a usable parameter anywhere in the CLI, so reject them at
    // the boundary instead of letting them poison a build downstream.
    if (pos != token.size() || !std::isfinite(v)) {
      throw std::invalid_argument(token);
    }
    return v;
  } catch (const std::exception&) {
    std::fprintf(stderr, "malformed %s '%s' (expected a finite number)\n\n",
                 what, token.c_str());
    usage();
  }
}

/// For parameters that are meaningless unless strictly positive (eps, edge
/// weights, spreads): finite and > 0, else exit 2.
double parse_positive_double(const std::string& token, const char* what) {
  const double v = parse_double(token, what);
  if (v <= 0) {
    std::fprintf(stderr, "%s must be positive, got '%s'\n\n", what,
                 token.c_str());
    usage();
  }
  return v;
}

/// The ε every scheme build takes. The name-independent constructions need
/// ε ∈ (0, 1) (Theorem 1.4), so anything else is a usage error here, not a
/// failed check after the metric and hierarchy are already built.
double parse_eps(const std::string& token, const char* what) {
  const double v = parse_positive_double(token, what);
  if (v >= 1) {
    std::fprintf(stderr, "%s must be in (0, 1), got '%s'\n\n", what,
                 token.c_str());
    usage();
  }
  return v;
}

/// Metric mode chosen by the global --metric option; every command that
/// builds a MetricSpace reads it.
MetricOptions g_metric_options;

/// One parsed command line: the command's positional arguments and the
/// options it was given, by name (a flag maps to an empty value).
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  bool has(const std::string& opt) const { return options.count(opt) != 0; }
  const std::string* get(const std::string& opt) const {
    const auto it = options.find(opt);
    return it == options.end() ? nullptr : &it->second;
  }
  std::string text(const std::string& opt, const std::string& fallback) const {
    const std::string* v = get(opt);
    return v ? *v : fallback;
  }
  std::uint64_t u64(const std::string& opt, std::uint64_t fallback) const {
    const std::string* v = get(opt);
    return v ? parse_u64(*v, (opt + " value").c_str()) : fallback;
  }
};

/// Writes a user-requested artifact and echoes the path. Returns false on
/// failure (write_text_file already printed the path-bearing warning);
/// callers turn that into exit code 1 — a missing artifact the user asked
/// for is a tool failure, not a shrug.
bool write_output_file(const std::string& path, const std::string& content) {
  if (!obs::write_text_file(path, content)) return false;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Writes the merged scrape of every worker shard's registry: Prometheus
/// text when `path` ends in `.prom`, otherwise a JSON document that also
/// carries the worker and shard counts needed to interpret it.
bool write_scrape(const std::string& path) {
  const auto scraped = obs::scrape_global();
  if (path.ends_with(".prom")) {
    return write_output_file(path, obs::registry_to_prometheus(*scraped));
  }
  obs::JsonValue doc = obs::JsonValue::object();
  doc["workers"] = static_cast<std::uint64_t>(Executor::global().workers());
  doc["shards"] = static_cast<std::uint64_t>(
      obs::ShardedRegistry::global().shard_count());
  doc["metrics"] = obs::registry_to_json(*scraped);
  return write_output_file(path, doc.dump(2) + "\n");
}

/// The short scheme tokens of the CLI, in ServeScheme order: `serve
/// --scheme`, the lines of a `server --source` replay file, and what `mine`
/// writes into one.
constexpr struct {
  const char* token;
  ServeScheme scheme;
} kSchemeTokens[] = {{"hier", ServeScheme::kHierarchical},
                     {"sf", ServeScheme::kScaleFree},
                     {"simple", ServeScheme::kSimpleNi},
                     {"sfni", ServeScheme::kScaleFreeNi}};

bool scheme_from_token(const std::string& token, ServeScheme* scheme) {
  for (const auto& entry : kSchemeTokens) {
    if (token == entry.token) {
      *scheme = entry.scheme;
      return true;
    }
  }
  return false;
}

const char* scheme_token(ServeScheme scheme) {
  return kSchemeTokens[static_cast<std::size_t>(scheme)].token;
}

/// The snapshot half of `build --verify` and `serve --audit`: the stored
/// arena sections must equal a fresh compile of the decoded compact sections
/// (a snapshot that does not decode fails here too), and the container must
/// reject a battery of truncations and bit flips. Merges into `report`, then
/// prints its totals under `label` and, on failure, every issue.
bool verify_snapshot(const std::string& path, audit::Report& report,
                     const char* label) {
  const std::vector<std::uint8_t> bytes = read_snapshot_file(path);
  report.merge(audit::audit_snapshot_arena(bytes));
  report.merge(audit::audit_snapshot_corruption(bytes, audit::Options{}));
  std::printf("%s: %zu checks, %zu issues\n", label, report.checks,
              report.issues.size());
  if (!report.ok()) std::printf("%s", report.summary().c_str());
  return report.ok();
}

std::uint64_t arg_u64(const std::vector<std::string>& args, std::size_t k,
                      std::uint64_t fallback, const char* what = "argument") {
  return k < args.size() ? parse_u64(args[k], what) : fallback;
}

double arg_positive_double(const std::vector<std::string>& args, std::size_t k,
                           double fallback, const char* what = "argument") {
  return k < args.size() ? parse_positive_double(args[k], what) : fallback;
}

double arg_eps(const std::vector<std::string>& args, std::size_t k) {
  return k < args.size() ? parse_eps(args[k], "eps") : 0.5;
}

int cmd_gen(const Args& args) {
  const std::string& family = args.positional[0];
  const std::string& out = args.positional[1];
  const std::vector<std::string> rest(args.positional.begin() + 2,
                                      args.positional.end());
  // Parameters each family takes after the output path (all defaulted).
  static const std::map<std::string, std::size_t> kMaxParams = {
      {"grid", 2},     {"torus", 2},      {"geometric", 4}, {"spider", 2},
      {"clusters", 4}, {"cliques", 3},    {"tree", 3},      {"lbtree", 2},
      {"powerlaw", 3}, {"hyperbolic", 4}, {"astopo", 3}};
  const auto max_params = kMaxParams.find(family);
  if (max_params != kMaxParams.end() && rest.size() > max_params->second) {
    std::fprintf(stderr, "gen %s takes at most %zu parameters, got %zu\n\n",
                 family.c_str(), max_params->second, rest.size());
    usage();
  }
  // Each family's size preconditions are the generator's own CR_CHECKs,
  // checked here first so a degenerate size is a usage error (exit 2).
  const auto need = [&family](bool ok, const char* rule) {
    if (ok) return;
    std::fprintf(stderr, "gen %s needs %s\n\n", family.c_str(), rule);
    usage();
  };
  Graph graph;
  if (family == "grid") {
    const std::uint64_t w = arg_u64(rest, 0, 16), h = arg_u64(rest, 1, 16);
    need(w >= 1 && h >= 1 && w * h >= 2, "W >= 1, H >= 1 and W*H >= 2");
    graph = make_grid(w, h);
  } else if (family == "torus") {
    const std::uint64_t w = arg_u64(rest, 0, 16), h = arg_u64(rest, 1, 16);
    need(w >= 3 && h >= 3, "W >= 3 and H >= 3");
    graph = make_torus(w, h);
  } else if (family == "geometric") {
    const std::uint64_t n = arg_u64(rest, 0, 256), dim = arg_u64(rest, 1, 2);
    const std::uint64_t k = arg_u64(rest, 2, 5);
    need(n >= 2 && dim >= 1 && dim <= 3 && k >= 1,
         "N >= 2, 1 <= DIM <= 3 and K >= 1");
    graph = make_random_geometric(n, static_cast<int>(dim), k,
                                  arg_u64(rest, 3, 1));
  } else if (family == "spider") {
    const std::uint64_t arms = arg_u64(rest, 0, 12), len = arg_u64(rest, 1, 8);
    need(arms >= 1 && len >= 1, "ARMS >= 1 and LEN >= 1");
    graph = make_exponential_spider(arms, len);
  } else if (family == "clusters") {
    const std::uint64_t levels = arg_u64(rest, 0, 4), fanout = arg_u64(rest, 1, 4);
    const double spread = arg_positive_double(rest, 2, 8);
    need(levels >= 1 && fanout >= 2 && spread > 1,
         "LEVELS >= 1, FANOUT >= 2 and SPREAD > 1");
    graph = make_cluster_hierarchy(levels, fanout, spread, arg_u64(rest, 3, 1));
  } else if (family == "cliques") {
    const std::uint64_t num = arg_u64(rest, 0, 16), size = arg_u64(rest, 1, 8);
    const double bridge = arg_positive_double(rest, 2, 10);
    need(num >= 3 && size >= 2 && bridge >= 1,
         "NUM >= 3, SIZE >= 2 and BRIDGE >= 1");
    graph = make_ring_of_cliques(num, size, bridge);
  } else if (family == "tree") {
    const std::uint64_t n = arg_u64(rest, 0, 200);
    const double max_weight = arg_positive_double(rest, 1, 4);
    need(n >= 2 && max_weight >= 1, "N >= 2 and MAXW >= 1");
    graph = make_random_tree(n, max_weight, arg_u64(rest, 2, 1));
  } else if (family == "lbtree") {
    const double eps = arg_positive_double(rest, 0, 4.0);
    const std::uint64_t n = arg_u64(rest, 1, 1000);
    need(eps < 8, "EPS in (0, 8) (Theorem 1.3)");
    // make_lower_bound_tree needs n >= 2·p·q, with p = ⌈72/ε⌉ + 6 and
    // q = ⌈48/ε⌉ - 4, so that every path T_{i,j} is non-empty.
    const double p = std::ceil(72.0 / eps) + 6, q = std::ceil(48.0 / eps) - 4;
    need(static_cast<double>(n) >= 2 * p * q,
         "N >= 2*p*q, with p = ceil(72/EPS) + 6 and q = ceil(48/EPS) - 4");
    graph = make_lower_bound_tree(eps, n).graph;
  } else if (family == "powerlaw") {
    const std::uint64_t n = arg_u64(rest, 0, 512, "powerlaw n");
    const std::uint64_t epn = arg_u64(rest, 1, 2, "powerlaw edges-per-node");
    need(n >= 3 && epn >= 1 && epn < n, "N >= 3 and 1 <= EDGES < N");
    graph = make_power_law(n, epn, arg_u64(rest, 2, 1, "powerlaw seed"));
  } else if (family == "hyperbolic") {
    const std::uint64_t n = arg_u64(rest, 0, 512, "hyperbolic n");
    const double alpha = arg_positive_double(rest, 1, 0.75, "hyperbolic alpha");
    const double avg_degree =
        arg_positive_double(rest, 2, 6.0, "hyperbolic avg-degree");
    need(n >= 3 && avg_degree < static_cast<double>(n), "N >= 3 and AVGDEG < N");
    graph = make_hyperbolic_disk(n, alpha, avg_degree,
                                 arg_u64(rest, 3, 1, "hyperbolic seed"));
  } else if (family == "astopo") {
    const std::uint64_t n = arg_u64(rest, 0, 512, "astopo n");
    const std::uint64_t core = arg_u64(rest, 1, 32, "astopo core");
    need(n >= 4 && core >= 3 && core < n, "N >= 4 and 3 <= CORE < N");
    graph = make_as_topology(n, core, arg_u64(rest, 2, 1, "astopo seed"));
  } else {
    std::fprintf(stderr, "unknown gen family '%s'\n\n", family.c_str());
    usage();
  }
  save_graph(out, graph);
  std::printf("wrote %s: %zu nodes, %zu edges\n", out.c_str(), graph.num_nodes(),
              graph.num_edges());
  return 0;
}

int cmd_info(const Args& args) {
  const Graph graph = load_graph(args.positional[0]);
  const MetricSpace metric(graph, g_metric_options);
  Prng prng(1);
  const DoublingEstimate dim = estimate_doubling_dimension(
      metric, std::min<std::size_t>(metric.n(), 12), prng);
  std::printf("nodes            %zu\n", metric.n());
  std::printf("edges            %zu\n", graph.num_edges());
  std::printf("max degree       %zu\n", graph.max_degree());
  std::printf("norm. diameter   %.6g\n", metric.delta());
  std::printf("net levels       %d\n", metric.num_levels());
  std::printf("metric backend   %s (%zu bytes)\n", metric.backend_name(),
              metric.memory_bytes());
  std::printf("doubling dim     ~%.2f (greedy estimate)\n", dim.dimension);
  return 0;
}

struct Stack {
  /// Builds all four schemes over `g`. The naming is the CLI's seeded random
  /// one unless `given` supplies another (`serve --audit` passes the
  /// snapshot's own).
  Stack(Graph g, double eps, const Naming* given = nullptr)
      : graph(std::move(g)),
        metric(graph, g_metric_options),
        hierarchy(metric),
        naming(given ? *given : Naming::random(metric.n(), 4242)),
        hier(metric, hierarchy, std::min(eps, 0.5)),
        sf(metric, hierarchy, std::min(eps, 0.5)),
        simple(metric, hierarchy, naming, hier, eps),
        sfni(metric, hierarchy, naming, sf, eps) {}
  Graph graph;
  MetricSpace metric;
  NetHierarchy hierarchy;
  Naming naming;
  HierarchicalLabeledScheme hier;
  ScaleFreeLabeledScheme sf;
  SimpleNameIndependentScheme simple;
  ScaleFreeNameIndependentScheme sfni;
};

NodeId parse_node(const std::string& token, const MetricSpace& metric,
                  const char* what) {
  const std::uint64_t v = parse_u64(token, what);
  if (v >= metric.n()) {
    std::fprintf(stderr, "%s %llu out of range (n = %zu)\n\n", what,
                 static_cast<unsigned long long>(v), metric.n());
    usage();
  }
  return static_cast<NodeId>(v);
}

int cmd_route(const Args& args) {
  const double eps = arg_eps(args.positional, 3);
  Stack stack(load_graph(args.positional[0]), eps);
  const NodeId src = parse_node(args.positional[1], stack.metric, "src");
  const NodeId dst = parse_node(args.positional[2], stack.metric, "dst");
  const Weight optimal = stack.metric.dist(src, dst);
  std::printf("d(%u, %u) = %.6g   (eps = %.3f)\n\n", src, dst, optimal, eps);
  std::printf("%-26s %10s %10s %7s\n", "scheme", "cost", "stretch", "hops");

  const auto report = [&](const std::string& name, const RouteResult& r) {
    std::printf("%-26s %10.6g %10.3f %7zu\n", name.c_str(), r.cost,
                optimal > 0 ? r.cost / optimal : 1.0, r.path.size() - 1);
  };
  const std::uint64_t name = stack.naming.name_of(dst);
  report(stack.hier.name(), stack.hier.route(src, stack.hier.label(dst)));
  report(stack.sf.name(), stack.sf.route(src, stack.sf.label(dst)));
  report(stack.simple.name(), stack.simple.route(src, name));
  report(stack.sfni.name(), stack.sfni.route(src, name));
  return 0;
}

void print_trace(const HopRun& r, Weight optimal) {
  if (r.trace.empty()) {
    if (r.path.size() <= 1) {
      std::printf("  (zero-hop route — already at the destination)\n");
    } else {
      std::printf("  (no per-hop trace — built with CR_OBS_DISABLED?)\n");
    }
    return;
  }
  std::printf("  %4s  %6s %6s  %10s  %-13s %9s\n", "hop", "from", "to", "cost",
              "phase", "hdr-bits");
  for (std::size_t i = 0; i < r.trace.hops.size(); ++i) {
    const TraceHop& hop = r.trace.hops[i];
    std::printf("  %4zu  %6u %6u  %10.6g  %-13s %9zu\n", i + 1, hop.from,
                hop.to, hop.cost, trace_phase_name(hop.phase), hop.header_bits);
  }
  const auto hops = r.trace.phase_hops();
  const auto cost = r.trace.phase_cost();
  std::printf("  phase summary:");
  for (std::size_t p = 0; p < kNumTracePhases; ++p) {
    if (hops[p] == 0) continue;
    std::printf("  %s=%zu hops/%.4g", trace_phase_name(static_cast<TracePhase>(p)),
                hops[p], cost[p]);
  }
  std::printf("\n  total cost %.6g (stretch %.3f), max header %zu bits\n\n",
              r.cost, optimal > 0 ? r.cost / optimal : 1.0,
              r.trace.max_header_bits());
}

int cmd_trace(const Args& args) {
  const double eps = arg_eps(args.positional, 3);
  Stack stack(load_graph(args.positional[0]), eps);
  const NodeId src = parse_node(args.positional[1], stack.metric, "src");
  const NodeId dst = parse_node(args.positional[2], stack.metric, "dst");
  const Weight optimal = stack.metric.dist(src, dst);
  std::printf("trace %u -> %u   d = %.6g   (eps = %.3f, workers = %zu, "
              "metric = %s)\n\n",
              src, dst, optimal, eps, Executor::global().workers(),
              stack.metric.backend_name());

  const HierarchicalHopScheme hop_hier(stack.hier);
  const ScaleFreeHopScheme hop_sf(stack.sf);
  const SimpleNameIndependentHopScheme hop_simple(stack.simple, stack.hier);
  const ScaleFreeNameIndependentHopScheme hop_sfni(stack.sfni, stack.sf);

  obs::JsonValue doc = obs::JsonValue::object();
  doc["src"] = static_cast<std::uint64_t>(src);
  doc["dst"] = static_cast<std::uint64_t>(dst);
  doc["optimal"] = optimal;
  doc["eps"] = eps;
  doc["traces"] = obs::JsonValue::array();

  const auto run = [&](const HopScheme& scheme, std::uint64_t dest_key) {
    const HopRun r = execute_hops(stack.metric, scheme, src, dest_key);
    std::printf("%s  (%zu hops, delivered=%s)\n", scheme.name().c_str(),
                r.path.size() - 1, r.delivered ? "yes" : "NO");
    print_trace(r, optimal);
    obs::JsonValue entry = obs::trace_to_json(r.trace);
    entry["delivered"] = r.delivered;
    entry["cost"] = r.cost;
    entry["stretch"] = optimal > 0 ? r.cost / optimal : 1.0;
    doc["traces"].push_back(std::move(entry));
  };
  run(hop_hier, stack.hier.label(dst));
  run(hop_sf, stack.sf.label(dst));
  run(hop_simple, stack.naming.name_of(dst));
  run(hop_sfni, stack.naming.name_of(dst));

  const bool json_ok = args.positional.size() < 5 ||
                       write_output_file(args.positional[4], doc.dump(2) + "\n");
  return json_ok ? 0 : 1;
}

int cmd_eval(const Args& args) {
  const std::size_t samples = arg_u64(args.positional, 1, 2000, "samples");
  const double eps = arg_eps(args.positional, 2);
  Stack stack(load_graph(args.positional[0]), eps);
  Prng prng(7);

  std::printf("eval: %zu samples, eps = %.3f, workers = %zu, metric = %s\n\n",
              samples, eps, Executor::global().workers(),
              stack.metric.backend_name());
  std::printf("%-26s %9s %9s %9s %12s %12s %8s\n", "scheme", "stretch",
              "avg-str", "p95-str", "max-bits", "avg-bits", "hdr-bits");
  const auto report = [&](auto& s, const StretchStats& stats) {
    std::vector<std::size_t> bits(stack.metric.n());
    for (NodeId u = 0; u < stack.metric.n(); ++u) bits[u] = s.storage_bits(u);
    const StorageStats st = summarize_storage(bits);
    std::printf("%-26s %9.3f %9.3f %9.3f %12zu %12.0f %8zu\n", s.name().c_str(),
                stats.max_stretch, stats.avg_stretch(), stats.p95(), st.max_bits,
                st.avg_bits, s.header_bits());
  };
  report(stack.hier, evaluate_labeled(stack.hier, stack.metric, samples, prng));
  report(stack.sf, evaluate_labeled(stack.sf, stack.metric, samples, prng));
  report(stack.simple, evaluate_name_independent(stack.simple, stack.metric,
                                                 stack.naming, samples, prng));
  report(stack.sfni, evaluate_name_independent(stack.sfni, stack.metric,
                                               stack.naming, samples, prng));
  return 0;
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) items.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (items.empty()) {
    std::fprintf(stderr, "empty list '%s'\n\n", list.c_str());
    usage();
  }
  return items;
}

int cmd_audit(const Args& args) {
  audit::CampaignOptions options;
  if (const std::string* value = args.get("--families")) {
    options.families = split_csv(*value);
    for (const std::string& family : options.families) {
      const auto& known = audit::campaign_families();
      if (std::find(known.begin(), known.end(), family) == known.end()) {
        std::fprintf(stderr, "unknown audit family '%s'\n\n", family.c_str());
        usage();
      }
    }
  }
  if (const std::string* value = args.get("--n")) {
    options.n_hints.clear();
    for (const std::string& token : split_csv(*value)) {
      options.n_hints.push_back(parse_u64(token, "--n entry"));
    }
  }
  if (const std::string* value = args.get("--seeds")) {
    options.seeds.clear();
    for (const std::string& token : split_csv(*value)) {
      options.seeds.push_back(parse_u64(token, "--seeds entry"));
    }
  }
  if (const std::string* value = args.get("--eps")) {
    options.epsilons.clear();
    for (const std::string& token : split_csv(*value)) {
      options.epsilons.push_back(parse_eps(token, "--eps entry"));
    }
  }
  if (const std::string* value = args.get("--backends")) {
    options.backends.clear();
    for (const std::string& token : split_csv(*value)) {
      MetricBackendKind kind;
      if (!backend_from_name(token, &kind)) {
        std::fprintf(stderr,
                     "--backends entries must be 'dense' or 'rowfree', got "
                     "'%s'\n\n",
                     token.c_str());
        usage();
      }
      options.backends.push_back(kind);
    }
  }
  if (const std::string* value = args.get("--workers")) {
    options.worker_counts.clear();
    for (const std::string& token : split_csv(*value)) {
      const std::uint64_t w = parse_u64(token, "--workers entry");
      if (w == 0) {
        std::fprintf(stderr, "--workers entries must be >= 1\n\n");
        usage();
      }
      options.worker_counts.push_back(static_cast<std::size_t>(w));
    }
  }
  if (const std::string* value = args.get("--budget-s")) {
    options.budget_seconds = parse_positive_double(*value, "--budget-s value");
  }
  // Intentionally undocumented: plants one defect so smoke tests can
  // demonstrate that a violation turns into exit code 1.
  if (const std::string* value = args.get("--inject")) {
    if (!audit::inject_from_string(*value, &options.inject)) {
      std::fprintf(stderr, "unknown --inject '%s'\n\n", value->c_str());
      usage();
    }
  }
  options.shrink = !args.has("--no-shrink");
  const std::string out_path = args.text("--out", "");

  const audit::CampaignResult result = audit::run_campaign(options);
  std::printf("audit: %zu cases, %zu checks, %zu violations%s\n",
              result.cases_run, result.checks, result.violations,
              result.budget_exhausted ? " (budget exhausted)" : "");
  for (const audit::CaseOutcome& outcome : result.outcomes) {
    if (outcome.ok()) continue;
    std::printf("  FAIL %s n=%zu seed=%llu eps=%.3g %s workers=%zu: %s\n",
                outcome.config.family.c_str(), outcome.n,
                static_cast<unsigned long long>(outcome.config.seed),
                outcome.config.epsilon, backend_name(outcome.config.backend),
                outcome.config.workers,
                outcome.issues.front().invariant.c_str());
  }
  if (result.shrunk.found) {
    std::printf("  shrunk to %s n=%zu seed=%llu eps=%.3g (%zu attempts): %s\n",
                result.shrunk.config.family.c_str(), result.shrunk.n,
                static_cast<unsigned long long>(result.shrunk.config.seed),
                result.shrunk.config.epsilon, result.shrunk.attempts,
                result.shrunk.invariant.c_str());
  }
  bool artifacts_ok = true;
  if (!out_path.empty()) {
    const obs::JsonValue doc = audit::campaign_report_json(options, result);
    artifacts_ok = write_output_file(out_path, doc.dump(2) + "\n");
  }
  return result.ok() && artifacts_ok ? 0 : 1;
}

int cmd_build(const Args& args) {
  const std::string out_path = args.text("--out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "build needs --out FILE (the snapshot to write)\n\n");
    usage();
  }
  const std::string schemes = args.text("--schemes", "all");
  if (schemes != "all" && schemes != "light") {
    std::fprintf(stderr, "--schemes must be 'all' or 'light', got '%s'\n\n",
                 schemes.c_str());
    usage();
  }
  const double eps = arg_eps(args.positional, 1);
  const bool all_schemes = schemes == "all";

  preregister_build_metrics();
  obs::reset_peak_rss();

  using Clock = std::chrono::steady_clock;
  struct Phase {
    const char* name;
    double seconds;
  };
  std::vector<Phase> phases;
  Clock::time_point mark = Clock::now();
  const auto lap = [&](const char* name) {
    const Clock::time_point now = Clock::now();
    phases.push_back({name, std::chrono::duration<double>(now - mark).count()});
    mark = now;
  };

  const Graph graph = load_graph(args.positional[0]);
  mark = Clock::now();
  const MetricSpace metric(graph, g_metric_options);
  const std::size_t n = metric.n();
  lap("metric");
  std::printf("build: n = %zu, eps = %.3f, workers = %zu, metric = %s, "
              "schemes = %s\n",
              n, eps, Executor::global().workers(), metric.backend_name(),
              schemes.c_str());

  const NetHierarchy hierarchy(metric);
  const Naming naming = Naming::random(n, 4242);
  lap("hierarchy");

  // Each section is written as soon as its scheme is built, and each scheme
  // is freed once nothing downstream reads it, so peak memory stays at the
  // live component rather than the whole stack.
  SnapshotStreamWriter writer(out_path);
  writer.add_meta(metric, eps);
  writer.add_graph(metric);
  writer.add_hierarchy(hierarchy, n);
  writer.add_naming(naming, n);

  const double eps_labeled = std::min(eps, 0.5);
  auto hier = std::make_unique<HierarchicalLabeledScheme>(metric, hierarchy,
                                                          eps_labeled);
  lap("labeled.hier");
  writer.add_hier(hier.get(), n);

  std::unique_ptr<ScaleFreeLabeledScheme> sf;
  if (all_schemes) {
    sf = std::make_unique<ScaleFreeLabeledScheme>(metric, hierarchy,
                                                  eps_labeled);
    lap("labeled.sf");
  }
  writer.add_scale_free(sf.get(), n);

  // Streamed per level: each level's search trees are encoded and dropped
  // before the next level is built, so only one level is ever alive.
  writer.begin_simple(eps, hierarchy.top_level() + 1);
  SimpleNameIndependentScheme::build_levels(
      metric, hierarchy, naming, *hier, eps,
      [&](int, std::vector<std::unique_ptr<SearchTree>> trees) {
        writer.add_simple_level(trees);
      });
  writer.end_simple();
  lap("ni.simple");
  hier.reset();  // nothing downstream reads the labeled tables

  std::unique_ptr<ScaleFreeNameIndependentScheme> sfni;
  if (all_schemes) {
    sfni = std::make_unique<ScaleFreeNameIndependentScheme>(metric, hierarchy,
                                                            naming, *sf, eps);
    lap("ni.sf");
  }
  writer.add_sfni(sfni.get(), n);
  sfni.reset();
  sf.reset();

  const std::uint64_t total_bytes = writer.finish();
  lap("snapshot");

  obs::publish_peak_rss();
  std::printf("\n%-14s %9s\n", "phase", "seconds");
  for (const Phase& p : phases) {
    std::printf("%-14s %9.2f\n", p.name, p.seconds);
  }
  const std::uint64_t peak = obs::peak_rss_bytes();
  std::printf("peak rss       %llu bytes (%.1f MiB)\n",
              static_cast<unsigned long long>(peak), peak / (1024.0 * 1024.0));
  std::printf("wrote %s: %llu bytes\n", out_path.c_str(),
              static_cast<unsigned long long>(total_bytes));

  if (!args.has("--verify")) return 0;
  audit::Report report;
  return verify_snapshot(out_path, report, "verify") ? 0 : 1;
}

int cmd_load_info(const Args& args) {
  const std::string& path = args.positional[0];
  const std::vector<std::uint8_t> bytes = read_snapshot_file(path);
  const auto sections = snapshot_directory(bytes);
  const SnapshotStack stack = decode_snapshot(bytes);
  // The serving restore too: what ServerEpoch::load would do with the file.
  const ServingSnapshot serving =
      restore_serving_snapshot(bytes.data(), sections);
  std::printf("%s: %zu bytes, format v2\n", path.c_str(), bytes.size());
  std::printf("nodes       %zu\n", stack.n);
  std::printf("edges       %zu\n", stack.graph.num_edges());
  std::printf("epsilon     %.6g\n", stack.epsilon);
  std::printf("net levels  %d\n", stack.num_levels);
  std::printf("arena       %zu bytes restored and validated\n\n",
              serving.arena->memory_bytes());
  std::printf("%4s  %-22s %10s %10s  %10s\n", "id", "section", "offset", "size",
              "crc32");
  for (const SnapshotSection& s : sections) {
    std::printf("%4u  %-22s %10llu %10llu  0x%08x\n", s.id, s.name.c_str(),
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size), s.crc);
  }
  return 0;
}

int cmd_serve(const Args& args) {
  const std::string& path = args.positional[0];
  const std::string scheme_sel = args.text("--scheme", "all");
  const std::string out_path = args.text("--out", "");
  const std::string obs_out_path = args.text("--obs-out", "");
  const std::string trace_out_path = args.text("--trace-out", "");
  const std::string flight_out_path = args.text("--flight-out", "");
  const std::uint64_t pairs = args.u64("--pairs", 10000);
  const std::uint64_t seed = args.u64("--seed", 1);
  if (pairs == 0) {
    std::fprintf(stderr, "--pairs must be >= 1\n\n");
    usage();
  }
  const bool all = scheme_sel == "all";
  ServeScheme selected = ServeScheme::kHierarchical;
  if (!all && !scheme_from_token(scheme_sel, &selected)) {
    std::fprintf(stderr, "unknown --scheme '%s'\n\n", scheme_sel.c_str());
    usage();
  }

  preregister_serving_metrics();
  preregister_build_metrics();
  if (!trace_out_path.empty()) obs::SpanCollector::global().enable(true);

  // Served exactly as the long-running server loads an epoch: the persisted
  // arena restored from the mapped file, no scheme section decoded.
  const std::shared_ptr<ServerEpoch> epoch =
      ServerEpoch::load(path, /*use_mmap=*/true, 0);
  const std::size_t n = epoch->n();
  std::printf("serve: %s (n = %zu, eps = %.3g), %llu pairs/scheme, seed %llu, "
              "workers = %zu, arena %zu bytes\n\n",
              path.c_str(), n, epoch->epsilon(),
              static_cast<unsigned long long>(pairs),
              static_cast<unsigned long long>(seed),
              Executor::global().workers(), epoch->arena()->memory_bytes());

  const auto labeled = make_requests(n, pairs, seed, [&](NodeId v) {
    return epoch->dest_key(ServeScheme::kHierarchical, v);
  });
  const auto named = make_requests(n, pairs, seed + 1, [&](NodeId v) {
    return epoch->dest_key(ServeScheme::kSimpleNi, v);
  });

  obs::JsonValue doc = obs::JsonValue::object();
  doc["bench"] = std::string("serving");
  doc["snapshot"] = path;
  doc["n"] = static_cast<std::uint64_t>(n);
  doc["epsilon"] = epoch->epsilon();
  doc["pairs"] = pairs;
  doc["seed"] = seed;
  doc["workers"] = static_cast<std::uint64_t>(Executor::global().workers());
  doc["schemes"] = obs::JsonValue::array();

  std::printf("%-26s %12s %9s %9s %9s %9s %10s\n", "scheme", "routes/s",
              "p50-us", "p90-us", "p99-us", "p999-us", "hops/rt");
  ServeOptions serve_options;
  // With --trace-out, sample roughly 64 request spans per scheme so the
  // trace stays viewer-sized no matter how large the batch is.
  serve_options.span_sample_every =
      trace_out_path.empty() ? 0 : std::max<std::size_t>(1, pairs / 64);
  const auto run = [&](const HopScheme& hop,
                       const std::vector<ServeRequest>& requests) {
    const ServeStats s =
        serve_batch(epoch->csr(), hop, requests, serve_options);
    std::printf("%-26s %12.0f %9.2f %9.2f %9.2f %9.2f %10.2f\n",
                hop.name().c_str(), s.routes_per_sec, s.p50_us, s.p90_us,
                s.p99_us, s.p999_us,
                static_cast<double>(s.total_hops) /
                    static_cast<double>(s.requests));
    obs::JsonValue entry = obs::JsonValue::object();
    entry["scheme"] = hop.name();
    entry["requests"] = static_cast<std::uint64_t>(s.requests);
    entry["delivered"] = static_cast<std::uint64_t>(s.delivered);
    entry["total_hops"] = static_cast<std::uint64_t>(s.total_hops);
    entry["elapsed_s"] = s.elapsed_s;
    entry["routes_per_sec"] = s.routes_per_sec;
    entry["p50_us"] = s.p50_us;
    entry["p90_us"] = s.p90_us;
    entry["p99_us"] = s.p99_us;
    entry["p999_us"] = s.p999_us;
    entry["max_us"] = s.max_us;
    entry["fingerprint"] = obs::hex_u64(s.fingerprint);
    doc["schemes"].push_back(std::move(entry));
  };
  // A subset snapshot (crtool build --schemes light) loads the missing
  // schemes as null: under `all` they are skipped with a note, but asking for
  // one by name is an error — the snapshot cannot answer that request.
  for (const auto& [token, scheme] : kSchemeTokens) {
    if (!all && scheme != selected) continue;
    if (!epoch->has(scheme)) {
      if (!all) {
        std::fprintf(stderr, "snapshot has no %s section (subset snapshot)\n",
                     token);
        return 1;
      }
      std::printf("%-26s %12s\n", token, "(absent)");
      continue;
    }
    const bool named_keys = scheme == ServeScheme::kSimpleNi ||
                            scheme == ServeScheme::kScaleFreeNi;
    run(*epoch->hop_scheme(scheme), named_keys ? named : labeled);
  }

  bool artifacts_ok = true;
  if (!out_path.empty()) {
    artifacts_ok &= write_output_file(out_path, doc.dump(2) + "\n");
  }
  if (!obs_out_path.empty()) artifacts_ok &= write_scrape(obs_out_path);
  if (!trace_out_path.empty()) {
    const obs::JsonValue trace =
        obs::spans_to_chrome_trace(obs::SpanCollector::global().snapshot());
    artifacts_ok &= write_output_file(trace_out_path, trace.dump(2) + "\n");
  }
  if (!args.has("--audit")) return artifacts_ok ? 0 : 1;
  for (std::size_t s = 0; s < kNumServeSchemes; ++s) {
    if (epoch->has(static_cast<ServeScheme>(s))) continue;
    std::fprintf(stderr,
                 "serve --audit requires a full four-scheme snapshot; this one "
                 "is a subset (crtool build --schemes light)\n");
    return 1;
  }

  // --audit: the acceptance gate. Rebuild the whole stack fresh from the
  // snapshot's own graph, naming and ε, and require every scheme's serve
  // fingerprint on the restored arena to match the fresh build, then run the
  // snapshot checks verify_snapshot shares with `build --verify`.
  std::printf("\naudit: rebuilding fresh stack from the snapshot graph...\n");
  const SnapshotStack& stored = epoch->stack();
  const Stack fresh_stack(stored.graph, stored.epsilon, stored.naming.get());

  const std::size_t audit_pairs =
      std::min<std::size_t>(static_cast<std::size_t>(pairs), 512);
  const audit::ServeFingerprints fresh = audit::serve_fingerprints(
      fresh_stack.metric.csr(), fresh_stack.hierarchy, fresh_stack.naming,
      fresh_stack.hier, fresh_stack.sf, fresh_stack.simple, fresh_stack.sfni,
      audit_pairs, seed);
  const audit::ServeFingerprints loaded = audit::serve_fingerprints(
      epoch->csr(), epoch->arena(), audit_pairs, seed);

  audit::Report report;
  const auto expect_fp = [&](const char* scheme, std::uint64_t a,
                             std::uint64_t b) {
    report.expect(a == b, "serve", "loaded fingerprint matches fresh build",
                  scheme);
  };
  expect_fp("labeled/hierarchical", fresh.hier, loaded.hier);
  expect_fp("labeled/scale-free", fresh.scale_free, loaded.scale_free);
  expect_fp("ni/simple", fresh.simple, loaded.simple);
  expect_fp("ni/scale-free", fresh.scale_free_ni, loaded.scale_free_ni);
  if (!verify_snapshot(path, report, "audit")) {
    // Post-mortem: the last ~256 routes each worker served before the
    // failing check, so a bad route can be replayed without re-running the
    // whole batch.
    const std::string dump = obs::FlightRecorder::global().dump_text();
    if (!flight_out_path.empty()) {
      write_output_file(flight_out_path, dump);
    } else {
      std::fprintf(stderr, "%s", dump.c_str());
    }
    return 1;
  }
  return artifacts_ok ? 0 : 1;
}

/// `crtool server`: the long-running engine. Loads a snapshot as epoch 0
/// (mmap zero-copy unless --no-mmap), then pushes a request stream — a seeded
/// synthetic mixed-scheme batch, or a file/stdin replay — through the bounded
/// shard queues, hot-swapping epochs every --reload-every requests (loads run
/// on a background thread; the flip is one publish). Prints sustained
/// throughput, latency percentiles, shed/swap counters, and the delivered-
/// request digest (identical across runs that shed the same requests —
/// the CI fingerprint gate compares a reloading run against a static one).
int cmd_server(const Args& args) {
  const std::string out_path = args.text("--out", "");
  const std::string obs_out_path = args.text("--obs-out", "");
  const std::string source_path = args.text("--source", "");
  const std::uint64_t requests = args.u64("--requests", 20000);
  const std::uint64_t seed = args.u64("--seed", 1);
  const std::uint64_t reload_every = args.u64("--reload-every", 0);
  const std::uint64_t queue_depth = args.u64("--queue-depth", 1024);
  const std::uint64_t shards = args.u64("--shards", 0);
  const bool backpressure = args.has("--backpressure");
  const bool use_mmap = !args.has("--no-mmap");
  TrafficOptions traffic;
  if (const std::string* value = args.get("--traffic")) {
    // kWorstPairs needs mined pairs, which a snapshot-only server cannot
    // produce (mining routes against the metric); replay them via
    // `--source` from a `crtool mine` file instead.
    if (!traffic_shape_from_string(*value, &traffic.shape) ||
        traffic.shape == TrafficShape::kWorstPairs) {
      std::fprintf(stderr,
                   "--traffic must be 'uniform', 'zipf', or 'incast' "
                   "(replay mined worst pairs via --source), got '%s'\n\n",
                   value->c_str());
      usage();
    }
  }
  if (const std::string* value = args.get("--zipf-skew")) {
    traffic.zipf_skew = parse_positive_double(*value, "--zipf-skew value");
  }
  if (queue_depth == 0) {
    std::fprintf(stderr, "--queue-depth must be >= 1\n\n");
    usage();
  }
  const std::string snap_a = args.positional[0];
  // With a second snapshot, reloads alternate A, B, A, ...; with one, every
  // reload re-maps the same file (a fresh epoch object and mapping each time).
  const std::string snap_b = args.positional.back();

  preregister_serving_metrics();

  ServerOptions options;
  options.queue_depth = static_cast<std::size_t>(queue_depth);
  options.shards = static_cast<std::size_t>(shards);
  options.backpressure = backpressure;
  Server server(options);

  std::uint64_t next_epoch_id = 0;
  const auto load_next = [&](std::uint64_t id) {
    const std::string& path = (id % 2 == 1) ? snap_b : snap_a;
    return ServerEpoch::load(path, use_mmap, id);
  };
  std::shared_ptr<ServerEpoch> first = load_next(next_epoch_id++);
  const std::size_t n = first->n();
  std::printf(
      "server: %s (n = %zu), %s load %.2f ms + arena %.2f ms, "
      "%zu shards x depth %llu, %s mode, %s traffic\n",
      snap_a.c_str(), n, first->load_info().used_mmap ? "mmap" : "vector",
      first->load_info().load_ms, first->load_info().arena_ms, server.shards(),
      static_cast<unsigned long long>(queue_depth),
      backpressure ? "backpressure" : "shedding",
      source_path.empty() ? traffic_shape_name(traffic.shape) : "replayed");

  // Request stream: schemes the first epoch serves (subset snapshots skip the
  // absent ones). Both snapshots must agree on n and scheme set — enforced at
  // each publish below.
  std::vector<ServeScheme> mix;
  for (std::size_t s = 0; s < kNumServeSchemes; ++s) {
    if (first->has(static_cast<ServeScheme>(s))) {
      mix.push_back(static_cast<ServeScheme>(s));
    }
  }
  CR_CHECK_MSG(!mix.empty(), "snapshot serves no scheme");

  std::vector<ServerRequest> stream;
  if (!source_path.empty()) {
    // File replay: one request per line, "src dest scheme" with scheme in
    // {hier, sf, simple, sfni}; '-' replays stdin. --requests caps the count
    // (0 = whole file).
    std::ifstream file;
    std::istream* in = &std::cin;
    if (source_path != "-") {
      file.open(source_path);
      if (!file) {
        std::fprintf(stderr, "cannot open request source %s\n",
                     source_path.c_str());
        return 1;
      }
      in = &file;
    }
    std::string line;
    while (std::getline(*in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream row(line);
      std::uint64_t src = 0, dest = 0;
      std::string scheme;
      if (!(row >> src >> dest >> scheme) || src >= n || dest >= n) {
        std::fprintf(stderr, "malformed request line: %s\n", line.c_str());
        return 1;
      }
      ServerRequest request;
      request.src = static_cast<NodeId>(src);
      request.dest = static_cast<NodeId>(dest);
      if (!scheme_from_token(scheme, &request.scheme)) {
        std::fprintf(stderr, "unknown scheme '%s' in request line: %s\n",
                     scheme.c_str(), line.c_str());
        return 1;
      }
      stream.push_back(request);
      if (requests != 0 && stream.size() >= requests) break;
    }
    if (stream.empty()) {
      std::fprintf(stderr, "request source %s yielded no requests\n",
                   source_path.c_str());
      return 1;
    }
  } else {
    if (requests == 0) {
      std::fprintf(stderr, "--requests must be >= 1 without --source\n\n");
      usage();
    }
    // Shaped synthetic load (runtime/traffic): uniform reproduces the
    // pre-shape request stream bit for bit, zipf/incast skew destinations.
    stream = make_traffic(n, requests, seed, mix, traffic);
  }

  server.publish(std::move(first));

  // Offered load: waves of one full queue capacity, pumped between waves.
  // Epoch reloads run on a background thread (std::async) while requests keep
  // flowing; the publish lands as soon as the load completes.
  const std::size_t total = stream.size();
  std::vector<ServerResult> results(total);
  const std::size_t capacity =
      server.shards() * static_cast<std::size_t>(queue_depth);
  std::future<std::shared_ptr<ServerEpoch>> pending;
  std::uint64_t next_reload_at = reload_every != 0 ? reload_every : ~0ULL;
  const auto publish_pending = [&] {
    std::shared_ptr<ServerEpoch> next = pending.get();
    CR_CHECK_MSG(next->n() == n, "reload snapshot changed node count");
    server.publish(std::move(next));
  };

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  std::size_t submitted = 0;
  while (submitted < total) {
    const std::size_t wave = std::min(capacity, total - submitted);
    for (std::size_t i = 0; i < wave; ++i, ++submitted) {
      server.submit(stream[submitted], submitted);
    }
    server.pump(results);
    if (submitted >= next_reload_at) {
      // One reload per boundary, guaranteed: if the previous background load
      // is still in flight at the next boundary, wait for it here rather
      // than skip the cycle — the swap cadence (and the epoch_swaps counter
      // the CI soak gates on) is then a deterministic function of
      // --reload-every, while requests still flow during the load whenever
      // it finishes faster than a cycle.
      if (pending.valid()) publish_pending();
      const std::uint64_t id = next_epoch_id++;
      pending = std::async(std::launch::async, load_next, id);
      next_reload_at += reload_every;
    }
    if (pending.valid() &&
        pending.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
      publish_pending();
    }
  }
  server.drain(results);
  // A load still in flight at stream end: publish it anyway so the swap
  // counter reflects every initiated reload, then retire immediately.
  if (pending.valid()) publish_pending();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  server.stop();

  const ServerCounters counters = server.counters();
  std::vector<double> latencies;
  latencies.reserve(total);
  std::set<std::uint64_t> epochs_seen;
  for (const ServerResult& r : results) {
    if (r.status != ServeStatus::kDelivered) continue;
    latencies.push_back(r.latency_us);
    epochs_seen.insert(r.epoch);
  }
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double q) {
    if (latencies.empty()) return 0.0;
    const double rank = q * static_cast<double>(latencies.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, latencies.size() - 1);
    return latencies[lo] + (latencies[hi] - latencies[lo]) *
                               (rank - static_cast<double>(lo));
  };
  const std::uint64_t digest = Server::delivered_digest(results);
  const double routes_per_sec =
      elapsed_s > 0 ? static_cast<double>(counters.served) / elapsed_s : 0;

  std::printf("\n%-12s %12llu\n", "submitted",
              static_cast<unsigned long long>(counters.submitted));
  std::printf("%-12s %12llu\n", "served",
              static_cast<unsigned long long>(counters.served));
  std::printf("%-12s %12llu\n", "shed",
              static_cast<unsigned long long>(counters.shed));
  std::printf("%-12s %12llu\n", "epoch swaps",
              static_cast<unsigned long long>(counters.swaps));
  std::printf("%-12s %12zu\n", "epochs used", epochs_seen.size());
  std::printf("%-12s %12.0f\n", "routes/s", routes_per_sec);
  std::printf("%-12s %12.2f\n", "p50 us", pct(0.50));
  std::printf("%-12s %12.2f\n", "p99 us", pct(0.99));
  std::printf("%-12s %12.2f\n", "p999 us", pct(0.999));
  // Hex string, on stdout and in --out: a 64-bit digest emitted as a JSON
  // number would round through double and break exact comparison.
  const std::string digest_hex = obs::hex_u64(digest);
  std::printf("%-12s %s\n", "digest", digest_hex.c_str());

  bool artifacts_ok = true;
  if (!out_path.empty()) {
    obs::JsonValue doc = obs::JsonValue::object();
    doc["bench"] = std::string("server");
    doc["snapshot"] = snap_a;
    if (snap_b != snap_a) doc["snapshot_b"] = snap_b;
    doc["n"] = static_cast<std::uint64_t>(n);
    doc["requests"] = static_cast<std::uint64_t>(total);
    doc["seed"] = seed;
    doc["traffic"] = std::string(
        source_path.empty() ? traffic_shape_name(traffic.shape) : "source");
    if (traffic.shape == TrafficShape::kZipf && source_path.empty()) {
      doc["zipf_skew"] = traffic.zipf_skew;
    }
    doc["mmap"] = use_mmap;
    doc["backpressure"] = backpressure;
    doc["queue_depth"] = queue_depth;
    doc["shards"] = static_cast<std::uint64_t>(server.shards());
    doc["reload_every"] = reload_every;
    doc["submitted"] = counters.submitted;
    doc["served"] = counters.served;
    doc["shed"] = counters.shed;
    doc["epoch_swaps"] = counters.swaps;
    doc["epochs_used"] = static_cast<std::uint64_t>(epochs_seen.size());
    doc["elapsed_s"] = elapsed_s;
    doc["routes_per_sec"] = routes_per_sec;
    doc["p50_us"] = pct(0.50);
    doc["p99_us"] = pct(0.99);
    doc["p999_us"] = pct(0.999);
    doc["digest"] = digest_hex;
    artifacts_ok &= write_output_file(out_path, doc.dump(2) + "\n");
  }
  if (!obs_out_path.empty()) artifacts_ok &= write_scrape(obs_out_path);
  return artifacts_ok ? 0 : 1;
}

int cmd_mine(const Args& args) {
  audit::MineOptions options;
  options.backend = g_metric_options.backend;
  options.samples = args.u64("--samples", options.samples);
  options.keep = args.u64("--keep", options.keep);
  options.seed = args.u64("--seed", options.seed);
  const std::string* eps = args.get("--eps");
  options.epsilon = eps ? parse_eps(*eps, "--eps value") : 0.5;
  if (options.samples < 1 || options.keep < 1) {
    std::fprintf(stderr, "--samples and --keep must be >= 1\n\n");
    usage();
  }

  const std::string& graph_path = args.positional[0];
  const Graph graph = load_graph(graph_path);
  const std::vector<audit::MinedPair> mined =
      audit::mine_worst_pairs(graph, options);
  CR_CHECK(!mined.empty());

  // `server --source` replay format: "src dest scheme" per line, the scheme
  // as its short token; the mined stretch rides in a trailing comment.
  std::ostringstream body;
  body << "# crtool mine: " << mined.size() << " worst-stretch pairs of "
       << graph_path << " (samples " << options.samples << "/scheme, seed "
       << options.seed << ", eps " << options.epsilon << ")\n";
  for (const audit::MinedPair& pair : mined) {
    body << pair.request.src << ' ' << pair.request.dest << ' '
         << scheme_token(pair.request.scheme) << "   # stretch "
         << pair.stretch << '\n';
  }
  if (!write_output_file(args.positional[1], body.str())) return 1;
  std::printf("worst stretch %.3f (%s %u -> %u), %zu pairs kept\n",
              mined.front().stretch, scheme_token(mined.front().request.scheme),
              mined.front().request.src, mined.front().request.dest,
              mined.size());
  return 0;
}

/// What one subcommand accepts. parse_command_line rejects everything else.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::size_t min_positional;
  std::size_t max_positional;
  std::vector<std::string> options;  // take a value: --opt v or --opt=v
  std::vector<std::string> flags;    // take none
};

const std::vector<Command> kCommands = {
    {"gen", cmd_gen, 2, 6, {}, {}},
    {"info", cmd_info, 1, 1, {}, {}},
    {"route", cmd_route, 3, 4, {}, {}},
    {"eval", cmd_eval, 1, 3, {}, {}},
    {"trace", cmd_trace, 3, 5, {}, {}},
    {"audit", cmd_audit, 0, 0,
     {"--families", "--n", "--seeds", "--eps", "--backends", "--workers",
      "--budget-s", "--out", "--inject"},
     {"--no-shrink"}},
    {"build", cmd_build, 1, 2, {"--out", "--schemes"}, {"--verify"}},
    {"load-info", cmd_load_info, 1, 1, {}, {}},
    {"serve", cmd_serve, 1, 1,
     {"--scheme", "--pairs", "--seed", "--out", "--obs-out", "--trace-out",
      "--flight-out"},
     {"--audit"}},
    {"server", cmd_server, 1, 2,
     {"--requests", "--seed", "--traffic", "--zipf-skew", "--reload-every",
      "--queue-depth", "--shards", "--source", "--out", "--obs-out"},
     {"--backpressure", "--no-mmap"}},
    {"mine", cmd_mine, 2, 2, {"--samples", "--keep", "--seed", "--eps"}, {}},
};

/// Applies a global option: --threads overrides the CR_THREADS environment
/// variable for this process; --metric selects the MetricSpace mode for every
/// command.
void apply_global(const std::string& opt, const std::string& value) {
  if (opt == "--threads") {
    const std::uint64_t v = parse_u64(value, "--threads value");
    if (v == 0) {
      std::fprintf(stderr, "--threads value must be >= 1\n\n");
      usage();
    }
    Executor::global().set_workers(static_cast<std::size_t>(v));
  } else if (!backend_from_name(value, &g_metric_options.backend)) {
    std::fprintf(stderr, "--metric must be 'dense' or 'rowfree', got '%s'\n\n",
                 value.c_str());
    usage();
  }
}

/// The one option parser. The first non-option token names the command;
/// global options are applied wherever they appear; every other `--opt` must
/// be one the command lists, as `--opt value` or `--opt=value` (a flag takes
/// no value). An unknown command or option, a missing value, or a positional
/// count outside the command's range exits 2.
std::pair<const Command*, Args> parse_command_line(
    const std::vector<std::string>& tokens) {
  const auto listed = [](const std::vector<std::string>& names,
                         const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  const Command* cmd = nullptr;
  Args args;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.compare(0, 2, "--") != 0) {
      if (cmd != nullptr) {
        args.positional.push_back(token);
        continue;
      }
      for (const Command& c : kCommands) {
        if (token == c.name) cmd = &c;
      }
      if (cmd == nullptr) {
        std::fprintf(stderr, "unknown command '%s'\n\n", token.c_str());
        usage();
      }
      continue;
    }
    const std::size_t eq = token.find('=');
    const std::string opt = token.substr(0, eq);
    if (cmd != nullptr && listed(cmd->flags, opt)) {
      if (eq != std::string::npos) {
        std::fprintf(stderr, "%s takes no value\n\n", opt.c_str());
        usage();
      }
      args.options[opt];
      continue;
    }
    const bool global = opt == "--threads" || opt == "--metric";
    if (!global && (cmd == nullptr || !listed(cmd->options, opt))) {
      std::fprintf(stderr, "unknown %s option '%s'\n\n",
                   cmd != nullptr ? cmd->name : "global", opt.c_str());
      usage();
    }
    std::string value;
    if (eq != std::string::npos) {
      value = token.substr(eq + 1);
    } else if (i + 1 < tokens.size()) {
      value = tokens[++i];
    } else {
      std::fprintf(stderr, "%s requires a value\n\n", opt.c_str());
      usage();
    }
    if (global) {
      apply_global(opt, value);
    } else {
      args.options[opt] = value;
    }
  }
  if (cmd == nullptr) usage();
  const std::size_t count = args.positional.size();
  if (count < cmd->min_positional || count > cmd->max_positional) {
    std::fprintf(stderr, "wrong number of arguments for %s (got %zu)\n\n",
                 cmd->name, count);
    usage();
  }
  return {cmd, args};
}

}  // namespace

int main(int argc, char** argv) {
  const auto [command, args] =
      parse_command_line(std::vector<std::string>(argv + 1, argv + argc));
  try {
    return command->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

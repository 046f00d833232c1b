// serve-read and serve-mutate: the deployed prim_serve, started with default
// flags on --port 0, driven over loopback TCP with the line protocol.
//
// Reads are an open loop: Poisson arrivals at a fixed offered rate, 75%
// CLASSIFY and 25% TOPK, Zipf-skewed POI ids, pipelined over two
// connections, each timed from when it was due. serve-read follows them with
// a closed-loop saturation phase; serve-mutate runs one mutation cycle per
// round beside them on a control connection. One thread drives every
// connection, so threads plus connections stay within nproc.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/prim_index.h"
#include "core/prim_model.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "io/model_io.h"
#include "models/model_context.h"
#include "reference.h"
#include "server_process.h"
#include "train/experiment.h"
#include "train/trainer.h"
#include "workloads.h"

namespace primbench {
namespace {

using namespace prim;

// --- Workload constants (README "Inputs") ----------------------------------
constexpr double kOfferedRps = 11000.0;  // Open-loop read arrivals per second.
constexpr double kRoundS = 1.0;         // One round: reads + (mutate) a cycle.
constexpr int kReadConnections = 2;
constexpr int kSaturationConnections = 3;
constexpr int kSaturationRequests = 40000;
constexpr int kSaturationChunk = 4000;  // max_rps is the median chunk rate.
constexpr double kZipfExponent = 1.0;
constexpr double kTopKRadiusKm = 2.0;
constexpr int kTopK = 10;
constexpr int kServedModelEpochs = 6;
// One scaled-down drift step per cycle.
constexpr int kAddPoi = 8;
constexpr int kAddRel = 32;
constexpr int kDelRel = 32;
constexpr int kDelPoi = 8;
constexpr int kDeclaredChecks = 4;  // CLASSIFY of ADDREL and of DELREL pairs.
constexpr int kProbes = 8;          // Stale-answer probes per cycle.

// --- Set-up ------------------------------------------------------------------

uint64_t PairKey(int a, int b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(b);
}

// What one cycle sends, and the model's answer on the mutated graph.
struct MutationPlan {
  std::vector<geo::GeoPoint> add_poi;
  std::vector<graph::Triple> add_rel;
  std::vector<std::pair<int, int>> del_rel;
  std::vector<int> del_poi;
  std::unordered_set<uint64_t> declared;  // ADDREL and DELREL pairs.
  std::unordered_set<int> deleted;
  std::vector<int> deleted_neighbor;  // An alive POI near each deleted one.
  std::vector<std::pair<int, int>> probes;
  std::unique_ptr<ReferenceScorer> mutated;  // Re-encoded over the mutated graph.
  std::vector<uint8_t> dirty;  // POIs whose answers a mutation may move.
};

struct ServeSetup {
  data::DriftConfig drift;
  data::PoiDataset city;
  train::ExperimentConfig config;
  train::ExperimentData data;
  std::unique_ptr<core::PrimModel> model;
  std::unique_ptr<core::PrimIndex> index;  // What the checkpoint serves.
  std::string checkpoint;
  std::unique_ptr<ReferenceScorer> base;
  std::vector<std::string> relation_names;
  MutationPlan plan;
};

// Undirected adjacency over relation and spatial edges.
std::vector<std::vector<int>> Adjacency(
    int n, const std::vector<const models::FlatEdges*>& edge_sets) {
  std::vector<std::vector<int>> adj(n);
  for (const models::FlatEdges* edges : edge_sets) {
    for (int e = 0; e < edges->size(); ++e) {
      adj[edges->src[e]].push_back(edges->dst[e]);
      adj[edges->dst[e]].push_back(edges->src[e]);
    }
  }
  return adj;
}

// Marks every node within `hops` of a seed.
std::vector<uint8_t> WithinHops(const std::vector<std::vector<int>>& adj,
                                const std::vector<int>& seeds, int hops) {
  std::vector<uint8_t> mark(adj.size(), 0);
  std::vector<int> frontier;
  for (int s : seeds)
    if (!mark[s]) mark[s] = 1, frontier.push_back(s);
  for (int h = 0; h < hops; ++h) {
    std::vector<int> next;
    for (int u : frontier)
      for (int v : adj[u])
        if (!mark[v]) mark[v] = 1, next.push_back(v);
    frontier.swap(next);
  }
  return mark;
}

// Picks the cycle's mutations from DriftMutations(drift, 0), re-encodes the
// trained model over the message graph with the declared edges applied, and
// chooses the stale-answer probes: pre-existing, alive, undeclared pairs
// outside every new or deleted POI's reach whose re-encoded answer clearly
// differs from the base index's.
void PlanMutations(ServeSetup* s, Result* result) {
  MutationPlan& plan = s->plan;
  const int n = s->city.num_pois();
  const std::vector<data::GraphMutation> stream = data::DriftMutations(s->drift, 0);
  for (const data::GraphMutation& m : stream) {
    if (m.kind == data::GraphMutation::Kind::kDelPoi &&
        static_cast<int>(plan.del_poi.size()) < kDelPoi) {
      plan.del_poi.push_back(m.poi_id);
      plan.deleted.insert(m.poi_id);
    }
    if (m.kind == data::GraphMutation::Kind::kAddPoi &&
        static_cast<int>(plan.add_poi.size()) < kAddPoi)
      plan.add_poi.push_back(m.poi.location);
  }
  auto usable = [&](int a, int b) {
    return a != b && a < n && b < n && !plan.deleted.count(a) &&
           !plan.deleted.count(b) && !plan.declared.count(PairKey(a, b));
  };
  for (const data::GraphMutation& m : stream) {
    const int a = m.edge.src, b = m.edge.dst;
    if (m.kind == data::GraphMutation::Kind::kDelEdge &&
        static_cast<int>(plan.del_rel.size()) < kDelRel && usable(a, b)) {
      plan.del_rel.push_back({a, b});
      plan.declared.insert(PairKey(a, b));
    }
    if (m.kind == data::GraphMutation::Kind::kAddEdge &&
        static_cast<int>(plan.add_rel.size()) < kAddRel && usable(a, b)) {
      plan.add_rel.push_back(m.edge);
      plan.declared.insert(PairKey(a, b));
    }
  }
  if (static_cast<int>(plan.del_poi.size()) < kDelPoi ||
      static_cast<int>(plan.add_poi.size()) < kAddPoi ||
      static_cast<int>(plan.del_rel.size()) < kDelRel ||
      static_cast<int>(plan.add_rel.size()) < kAddRel) {
    result->CheckFailed("the drift step has too few mutations for one cycle");
    return;
  }

  // The message graph after the cycle: declared edges applied and deleted
  // POIs' edges gone (a closed POI loses every edge). The trained parameters
  // re-run over it give the answers an exact server would serve.
  std::vector<graph::Triple> edges;
  for (const graph::Triple& t : s->data.message_edges)
    if (!plan.declared.count(PairKey(t.src, t.dst)) &&
        !plan.deleted.count(t.src) && !plan.deleted.count(t.dst))
      edges.push_back(t);
  edges.insert(edges.end(), plan.add_rel.begin(), plan.add_rel.end());
  const models::ModelContext ctx =
      models::BuildModelContext(s->city, edges, s->config.context);
  Rng rng(1);
  core::PrimModel mutated_model(ctx, s->config.prim, rng);
  const std::string load = mutated_model.LoadStateDict(s->model->StateDict());
  if (!load.empty()) {
    result->CheckFailed("re-encoding the mutated graph: " + load);
    return;
  }
  const core::PrimIndex mutated_index = core::PrimIndex::Build(mutated_model);
  std::vector<geo::GeoPoint> points(n);
  for (int i = 0; i < n; ++i) points[i] = s->city.pois[i].location;
  plan.mutated = std::make_unique<ReferenceScorer>(mutated_index, points,
                                                   s->relation_names);

  // A node's embedding depends on its L-hop relation neighbourhood and on
  // its spatial neighbours' last-layer states (Eq. 6-10), so a change at a
  // node reaches L relation hops and then one spatial hop.
  const std::vector<std::vector<int>> relation =
      Adjacency(n, {&s->data.ctx.union_edges, &ctx.union_edges});
  const std::vector<std::vector<int>> spatial = Adjacency(n, {&s->data.ctx.spatial});
  std::vector<int> seeds(plan.del_poi.begin(), plan.del_poi.end());
  for (const graph::Triple& t : plan.add_rel) seeds.insert(seeds.end(), {t.src, t.dst});
  for (const auto& [a, b] : plan.del_rel) seeds.insert(seeds.end(), {a, b});
  std::vector<uint8_t> reach = WithinHops(relation, seeds, s->config.prim.layers);
  for (int i = 0; i < n; ++i)
    if (reach[i] == 1)
      for (int j : spatial[i]) reach[j] = reach[j] ? reach[j] : 2;
  // Answers the re-encoding cannot pin down: the server learns only a new
  // POI's location, and how a closed POI leaves its neighbours' spatial
  // context is the server's choice. Probes avoid both.
  std::vector<uint8_t> open_question(n, 0);
  for (int d : plan.del_poi) {
    open_question[d] = 1;
    for (int j : spatial[d]) open_question[j] = 1;
  }
  const double near_km = ctx.spatial_threshold_km + 0.35;
  for (int i = 0; i < n; ++i)
    for (const geo::GeoPoint& p : plan.add_poi)
      if (ReferenceHaversineKm(points[i], p) <= near_km) open_question[i] = 1;

  plan.dirty.assign(n, 0);
  std::vector<uint8_t> changed(n, 0);
  const int dim = mutated_index.dim();
  int changed_outside = 0;
  for (int i = 0; i < n; ++i) {
    const float* a = s->index->embeddings_data() + static_cast<size_t>(i) * dim;
    const float* b = mutated_index.embeddings_data() + static_cast<size_t>(i) * dim;
    for (int d = 0; d < dim; ++d)
      if (std::fabs(a[d] - b[d]) > 1e-5f * (1.0f + std::fabs(a[d]))) changed[i] = 1;
    if (changed[i] && !reach[i]) ++changed_outside;
    plan.dirty[i] = changed[i] || open_question[i];
  }
  for (const graph::Triple& t : plan.add_rel) plan.dirty[t.src] = plan.dirty[t.dst] = 1;
  for (const auto& [a, b] : plan.del_rel) plan.dirty[a] = plan.dirty[b] = 1;
  if (changed_outside > 0)
    result->CheckFailed(std::to_string(changed_outside) +
                        " embeddings beyond the mutations' reach changed when "
                        "re-encoding the mutated graph");

  // An alive neighbour of each deleted POI for the TOPK check.
  for (int id : plan.del_poi) {
    int best = -1;
    double best_km = 1e9;
    for (int j = 0; j < n; ++j) {
      if (j == id || plan.deleted.count(j)) continue;
      const double km = ReferenceHaversineKm(points[id], points[j]);
      if (km < best_km) best = j, best_km = km;
    }
    plan.deleted_neighbor.push_back(best);
  }

  // Stale-answer probes, in a fixed order: a re-encoded POI paired with a
  // relation or spatial neighbour, both answers clear of near-ties.
  for (int u = 0; u < n && static_cast<int>(plan.probes.size()) < kProbes; ++u) {
    if (!changed[u] || open_question[u]) continue;
    for (const std::vector<std::vector<int>>* adj : {&relation, &spatial}) {
      bool found = false;
      for (int v : (*adj)[u]) {
        if (open_question[v] || plan.declared.count(PairKey(u, v))) continue;
        const ReferenceScorer::Answer was = s->base->Classify(u, v);
        const ReferenceScorer::Answer now = plan.mutated->Classify(u, v);
        if (was.acceptable.size() == 1 && now.acceptable.size() == 1 &&
            was.best != now.best) {
          plan.probes.push_back({u, v});
          found = true;
          break;
        }
      }
      if (found) break;
    }
  }
  if (static_cast<int>(plan.probes.size()) < kProbes)
    result->CheckFailed("found only " + std::to_string(plan.probes.size()) +
                        " stale-answer probe pairs");
}

// City, served model, checkpoint, references and (serve-mutate) the mutation
// plan; everything before the server starts.
std::unique_ptr<ServeSetup> SetUp(const Options& options, bool mutate,
                                  Result* result) {
  auto s = std::make_unique<ServeSetup>();
  // The paper-sized BJ preset, the same city in every run: the stale-answer
  // probes must fail identically whatever the seed. The seed drives traffic.
  s->drift.city = data::BeijingConfig(data::DatasetScale::kPaper);
  // A scaled-down drift step: about 0.1% of POIs close and open and 0.1% of
  // edges churn, of which one cycle sends a fixed subset.
  s->drift.close_fraction = 0.001;
  s->drift.open_fraction = 0.001;
  s->drift.edge_churn_fraction = 0.001;
  const double t0 = NowS();
  s->city = data::DriftCity(s->drift, 0);
  const double t1 = NowS();
  s->config.trainer.epochs = kServedModelEpochs;
  s->config.SyncDims();
  s->data = train::PrepareExperiment(s->city, 0.6, s->config);
  const double t2 = NowS();
  result->Set("data.generate_s", t1 - t0);
  result->Set("train.prepare_s", t2 - t1);

  Rng rng(1);
  s->model = std::make_unique<core::PrimModel>(s->data.ctx, s->config.prim, rng);
  train::Trainer trainer(*s->model, s->data.split.train, *s->data.full_graph,
                         s->config.trainer);
  trainer.Fit(nullptr);
  s->index = std::make_unique<core::PrimIndex>(core::PrimIndex::Build(*s->model));

  s->checkpoint = options.work_dir + "/served.ckpt";
  const double t3 = NowS();
  if (io::Result r = io::SaveTrainedModel(s->checkpoint, *s->model, "PRIM",
                                          &s->config.prim, s->index.get(),
                                          s->city);
      !r) {
    result->CheckFailed("SaveTrainedModel: " + r.error);
    return s;
  }
  const double t4 = NowS();
  // The reference reads the served file itself, the way prim_serve does.
  io::ModelCheckpoint loaded;
  if (io::Result r = io::LoadModelCheckpointMapped(s->checkpoint, &loaded); !r) {
    result->CheckFailed("LoadModelCheckpointMapped: " + r.error);
    return s;
  }
  const double t5 = NowS();
  result->Set("io.save_ms", (t4 - t3) * 1e3);
  result->Set("io.load_ms", (t5 - t4) * 1e3);
  s->relation_names = loaded.relation_names;
  s->base = std::make_unique<ReferenceScorer>(*loaded.index, loaded.points,
                                              loaded.relation_names);
  if (mutate) PlanMutations(s.get(), result);
  return s;
}

// --- Traffic ----------------------------------------------------------------

// One request line and its timeline.
struct Op {
  std::string line;
  double due = 0.0;   // Absolute send time; 0 = as soon as allowed.
  int after = -1;     // Op that must be answered first.
  int conn = 0;
  double sent = -1.0;
  double done = -1.0;
  std::string response;
};

class ZipfIds {
 public:
  ZipfIds(int n, double exponent, Rng& rng) : ids_(n), cdf_(n) {
    for (int i = 0; i < n; ++i) ids_[i] = i;
    rng.Shuffle(ids_);
    double sum = 0.0;
    for (int r = 0; r < n; ++r) cdf_[r] = sum += 1.0 / std::pow(r + 1, exponent);
    for (double& c : cdf_) c /= sum;
  }
  int Next(Rng& rng) const {
    const double u = rng.Uniform();
    const size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return ids_[std::min(r, ids_.size() - 1)];
  }

 private:
  std::vector<int> ids_;
  std::vector<double> cdf_;
};

// Appends `count` reads (a quarter of them TOPK, in seeded order) to `ops`.
// With `start` >= 0 they are due at uniform times in [start, start + span),
// i.e. Poisson arrivals conditioned on their count; otherwise they form a
// closed loop over `connections` connections.
void AddReads(int count, double start, double span, int first_conn,
              int connections, const ZipfIds& zipf, Rng& rng,
              std::vector<Op>* ops) {
  std::vector<double> due(count);
  for (double& d : due) d = start + rng.Uniform() * span;
  std::sort(due.begin(), due.end());
  std::vector<uint8_t> topk(count, 0);
  std::fill(topk.begin(), topk.begin() + count / 4, 1);
  rng.Shuffle(topk);
  const int base = static_cast<int>(ops->size());
  for (int k = 0; k < count; ++k) {
    Op op;
    const int i = zipf.Next(rng);
    if (topk[k]) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "TOPK %d %.1f %d", i, kTopKRadiusKm, kTopK);
      op.line = buf;
    } else {
      int j = zipf.Next(rng);
      while (j == i) j = zipf.Next(rng);
      op.line = "CLASSIFY " + std::to_string(i) + " " + std::to_string(j);
    }
    op.conn = first_conn + k % connections;
    if (start >= 0) {
      op.due = due[k];
    } else if (k >= connections) {
      op.after = base + k - connections;
    }
    ops->push_back(std::move(op));
  }
}

// --- Client -----------------------------------------------------------------

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Drives `ops` over `connections` sockets from this one thread: each op is
// written once it is due and its `after` op is answered; answers match
// requests in per-connection FIFO order.
class Client {
 public:
  Client(int port, int connections) {
    conns_.resize(connections);
    for (Conn& c : conns_) c.fd = Connect(port);
  }
  ~Client() {
    for (Conn& c : conns_)
      if (c.fd >= 0) close(c.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ok() const {
    for (const Conn& c : conns_)
      if (c.fd < 0) return false;
    return true;
  }

  // Runs ops [begin, end); false with `error` set on a stall or a dropped
  // connection.
  bool Run(std::vector<Op>& ops, size_t begin, size_t end, std::string* error) {
    for (Conn& c : conns_) c.queue.clear();
    for (size_t k = begin; k < end; ++k) conns_[ops[k].conn].queue.push_back(k);
    size_t answered = 0;
    double last_progress = NowS();
    std::vector<pollfd> fds(conns_.size());
    while (answered < end - begin) {
      double now = NowS();
      double wake = now + 0.05;
      for (Conn& c : conns_) {
        while (!c.queue.empty()) {
          Op& op = ops[c.queue.front()];
          if (op.after >= 0 && ops[op.after].done < 0) break;
          if (op.due > now) {
            wake = std::min(wake, op.due);
            break;
          }
          c.out += op.line;
          c.out += '\n';
          op.sent = now;
          c.pending.push_back(c.queue.front());
          c.queue.pop_front();
        }
        Flush(c);
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        fds[c].fd = conns_[c].fd;
        fds[c].events = POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT);
        fds[c].revents = 0;
      }
      const double wait = std::max(0.0, wake - NowS());
      timespec timeout{static_cast<time_t>(wait),
                       static_cast<long>((wait - std::floor(wait)) * 1e9)};
      if (ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
        *error = std::string("ppoll: ") + std::strerror(errno);
        return false;
      }
      now = NowS();
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        char buf[65536];
        const ssize_t got = read(conns_[c].fd, buf, sizeof(buf));
        if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR)) {
          *error = "the server closed a connection";
          return false;
        }
        if (got < 0) continue;
        Conn& conn = conns_[c];
        conn.in.append(buf, static_cast<size_t>(got));
        size_t start = 0, nl;
        while ((nl = conn.in.find('\n', start)) != std::string::npos) {
          if (conn.pending.empty()) {
            *error = "an answer arrived for no request";
            return false;
          }
          Op& op = ops[conn.pending.front()];
          conn.pending.pop_front();
          op.response = conn.in.substr(start, nl - start);
          op.done = now;
          ++answered;
          last_progress = now;
          start = nl + 1;
        }
        conn.in.erase(0, start);
      }
      if (now - last_progress > 60.0) {
        *error = "no answer for 60 s";
        return false;
      }
    }
    return true;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
    std::deque<size_t> queue;    // Not yet sent, in op order.
    std::deque<size_t> pending;  // Sent, awaiting an answer.
  };

  static void Flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t put = write(c.fd, c.out.data(), c.out.size());
      if (put <= 0) return;  // EAGAIN: POLLOUT resumes it.
      c.out.erase(0, static_cast<size_t>(put));
    }
  }

  std::vector<Conn> conns_;
};

// key=value fields of a STATS answer.
std::map<std::string, double> ParseStats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos)
      out[token.substr(0, eq)] = std::strtod(token.c_str() + eq + 1, nullptr);
  }
  return out;
}

double Stat(const std::map<std::string, double>& stats, const std::string& key) {
  const auto it = stats.find(key);
  if (it == stats.end()) {
    std::fprintf(stderr, "primbench: STATS has no %s (reported missing)\n",
                 key.c_str());
    return kMissing;
  }
  return it->second;
}

// Server-side counters over a window, from STATS before and after it.
void ReportStats(const std::map<std::string, double>& before,
                 const std::map<std::string, double>& after, double cpu_s,
                 int64_t requests, Result* result) {
  auto delta = [&](const std::string& key) {
    const double a = Stat(before, key), b = Stat(after, key);
    return a == kMissing || b == kMissing ? kMissing : b - a;
  };
  auto ratio = [](double num, double den) {
    return num == kMissing || den == kMissing ? kMissing
                                              : den > 0 ? num / den : 0.0;
  };
  result->Set("serve.classify_handler_us",
              ratio(delta("classify_ms") * 1e3, delta("classify")));
  result->Set("serve.topk_handler_us",
              ratio(delta("topk_ms") * 1e3, delta("topk")));
  result->Set("serve.net.classify_p50_ms", Stat(after, "classify_p50_ms"));
  result->Set("serve.net.topk_p50_ms", Stat(after, "topk_p50_ms"));
  const double hits = delta("cache_hits"), misses = delta("cache_misses");
  result->Set("serve.cache_hit_ratio",
              ratio(hits, hits == kMissing || misses == kMissing
                              ? kMissing
                              : hits + misses));
  result->Set("serve.coalesced_share",
              ratio(delta("net_batched"), static_cast<double>(requests)));
  result->Set("serve.compactions", delta("compactions"));
  result->Set("serve.cpu_ms_per_req",
              ratio(cpu_s * 1e3, static_cast<double>(requests)));
}

// Round trip from when each read was due. The end-to-end p50 is the median
// of per-second medians, so a stalled second moves it by one sample of ten;
// p99 and the per-verb figures are over the whole run.
void ReportReads(const std::vector<Op>& ops, size_t begin, size_t end,
                 Result* result) {
  std::vector<double> classify, topk, all, lag;
  std::vector<std::vector<double>> per_second;
  for (size_t k = begin; k < end; ++k) {
    const double ms = (ops[k].done - ops[k].due) * 1e3;
    (ops[k].line[0] == 'T' ? topk : classify).push_back(ms);
    all.push_back(ms);
    lag.push_back((ops[k].sent - ops[k].due) * 1e3);
    const size_t second = static_cast<size_t>(ops[k].due - ops[begin].due);
    if (per_second.size() <= second) per_second.resize(second + 1);
    per_second[second].push_back(ms);
  }
  std::vector<double> medians;
  for (std::vector<double>& window : per_second)
    if (!window.empty()) medians.push_back(Median(std::move(window)));
  result->Set("p50_ms", Median(medians));
  result->Set("p99_ms", Percentile(all, 99));
  result->Set("classify_p50_ms", Median(classify));
  result->Set("topk_p50_ms", Median(topk));
  result->Set("loadgen.lag_p99_ms", Percentile(lag, 99));
}

bool ParseRead(const std::string& line, bool* topk, int* i, int* j) {
  char verb[16];
  *j = -1;
  if (std::sscanf(line.c_str(), "%15s %d %d", verb, i, j) < 2) return false;
  *topk = verb[0] == 'T';
  return true;
}

// Full check of reads answered from the checkpoint's own state.
void CheckBaseReads(const std::vector<Op>& ops, size_t begin, size_t end,
                    const std::vector<uint8_t>& base_state,
                    const ReferenceScorer& ref, Result* result) {
  std::unordered_map<int, std::string> topk_checked;  // id -> answer checked.
  for (size_t k = begin; k < end; ++k) {
    if (!base_state.empty() && !base_state[k - begin]) continue;
    bool topk = false;
    int i = -1, j = -1;
    ParseRead(ops[k].line, &topk, &i, &j);
    std::string error;
    if (!topk) {
      error = ref.CheckClassify(i, j, ops[k].response);
    } else {
      auto it = topk_checked.find(i);
      if (it != topk_checked.end() && it->second == ops[k].response) continue;
      error = ref.CheckTopK(i, kTopKRadiusKm, kTopK, ops[k].response);
      topk_checked[i] = ops[k].response;
    }
    if (!error.empty()) {
      result->CheckFailed(error);
      return;
    }
  }
}

// Sends one STATS on `conn` and returns its fields.
std::map<std::string, double> QueryStats(Client& client, int conn,
                                         Result* result) {
  std::vector<Op> ops(1);
  ops[0].line = "STATS";
  ops[0].conn = conn;
  std::string error;
  if (!client.Run(ops, 0, 1, &error)) result->CheckFailed("STATS: " + error);
  return ParseStats(ops[0].response);
}

bool StartServer(const Options& options, ServerProcess* server, Result* result) {
  std::string error;
  if (!server->Start(options.serve_binary,
                     {"--port", "0", "--checkpoint",
                      options.work_dir + "/served.ckpt"},
                     options.work_dir + "/prim_serve.log", 120.0, &error)) {
    result->CheckFailed(error);
    return false;
  }
  std::fprintf(stderr, "primbench: prim_serve pid %d on port %d\n",
               static_cast<int>(server->pid()), server->port());
  if (options.fail_check) {
    // The failure path must tear the server down like any other.
    result->CheckFailed("injected check failure (--fail-check)");
    return false;
  }
  return true;
}

int Rounds(const Options& options) {
  return std::max(1, static_cast<int>(options.seconds / kRoundS));
}

// --- Mutation cycles ----------------------------------------------------------

// Where each group of one cycle's control ops sits in the op list.
struct Cycle {
  size_t begin = 0, end = 0;
  size_t mutations_end = 0;  // [begin, mutations_end): ADDPOI..DELPOI.
  size_t stats = 0;          // Traced runs: STATS after the mutations.
  size_t declared = 0, deleted = 0;
  size_t probes_pre = 0, compact = 0, probes_post = 0, reload = 0,
         probes_reload = 0;
};

// Appends one cycle, its first op due at `start` and after op `after`; every
// later op waits for the one before it (one control connection, closed loop).
Cycle AddCycle(const ServeSetup& s, double start, int after, int conn,
               bool trace, std::vector<Op>* ops) {
  const MutationPlan& plan = s.plan;
  Cycle c;
  c.begin = ops->size();
  auto add = [&](const std::string& line) {
    Op op;
    op.line = line;
    op.conn = conn;
    const bool first = ops->size() == c.begin;
    op.due = first ? start : 0.0;
    op.after = first ? after : static_cast<int>(ops->size()) - 1;
    ops->push_back(op);
  };
  auto pair = [](const char* verb, int a, int b) {
    return std::string(verb) + " " + std::to_string(a) + " " + std::to_string(b);
  };
  for (const geo::GeoPoint& p : plan.add_poi) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "ADDPOI %.7f %.7f", p.lon, p.lat);
    add(buf);
  }
  for (const graph::Triple& t : plan.add_rel)
    add(pair("ADDREL", t.src, t.dst) + " " + s.relation_names[t.rel]);
  for (const auto& [a, b] : plan.del_rel) add(pair("DELREL", a, b));
  for (int id : plan.del_poi) add("DELPOI " + std::to_string(id));
  c.mutations_end = ops->size();
  c.stats = ops->size();
  if (trace) add("STATS");
  c.declared = ops->size();
  for (int k = 0; k < kDeclaredChecks; ++k)
    add(pair("CLASSIFY", plan.add_rel[k].src, plan.add_rel[k].dst));
  for (int k = 0; k < kDeclaredChecks; ++k)
    add(pair("CLASSIFY", plan.del_rel[k].first, plan.del_rel[k].second));
  c.deleted = ops->size();
  for (size_t k = 0; k < plan.del_poi.size(); ++k) {
    add(pair("CLASSIFY", plan.del_poi[k], plan.deleted_neighbor[k]));
    char buf[64];
    std::snprintf(buf, sizeof(buf), "TOPK %d %.1f %d", plan.deleted_neighbor[k],
                  kTopKRadiusKm, kTopK);
    add(buf);
  }
  c.probes_pre = ops->size();
  for (const auto& [u, v] : plan.probes) add(pair("CLASSIFY", u, v));
  c.compact = ops->size();
  add("COMPACT");
  c.probes_post = ops->size();
  for (const auto& [u, v] : plan.probes) add(pair("CLASSIFY", u, v));
  c.reload = ops->size();
  add("RELOAD");
  c.probes_reload = ops->size();
  for (const auto& [u, v] : plan.probes) add(pair("CLASSIFY", u, v));
  c.end = ops->size();
  return c;
}

// TOPK answer lists a POI of `ids`.
bool ListsAny(const std::string& line, const std::unordered_set<int>& ids) {
  std::vector<TopKEntry> entries;
  ParseTopK(line, &entries);
  for (const TopKEntry& e : entries)
    if (ids.count(e.id)) return true;
  return false;
}

// Checks one cycle's control answers; returns the stale probes (answers
// that differ from the model re-run over the mutated graph).
int CheckCycle(const ServeSetup& s, const std::vector<Op>& ops, const Cycle& c,
               Result* result) {
  const MutationPlan& plan = s.plan;
  const int n = s.city.num_pois();
  auto expect = [&](size_t k, const std::string& want, bool prefix) {
    const std::string& got = ops[k].response;
    if (prefix ? got.rfind(want, 0) != 0 : got != want)
      result->CheckFailed("'" + ops[k].line + "' answered '" + got +
                          "', expected " + (prefix ? "a line starting '" : "'") +
                          want + "'");
  };
  size_t k = c.begin;
  for (size_t a = 0; a < plan.add_poi.size(); ++a, ++k)
    expect(k, "OK id=" + std::to_string(n + static_cast<int>(a)), false);
  // Declared facts come back verbatim.
  for (const graph::Triple& t : plan.add_rel)
    expect(k++, "OK declared=" + s.relation_names[t.rel], false);
  for (size_t d = 0; d < plan.del_rel.size(); ++d) expect(k++, "OK declared=none", false);
  for (int id : plan.del_poi) expect(k++, "OK removed=" + std::to_string(id), false);
  k = c.declared;
  for (int d = 0; d < kDeclaredChecks; ++d)
    expect(k++, "OK " + s.relation_names[plan.add_rel[d].rel] + " ", true);
  for (int d = 0; d < kDeclaredChecks; ++d) expect(k++, "OK none ", true);
  // Deleted POIs answer "removed" and leave every TOPK.
  for (int id : plan.del_poi) {
    expect(k++, "ERR POI " + std::to_string(id) + " was removed", false);
    expect(k, "OK ", true);
    if (ListsAny(ops[k].response, plan.deleted))
      result->CheckFailed("TOPK lists a deleted POI: " + ops[k].response);
    ++k;
  }
  // Compaction changes no answer; after RELOAD the checkpoint answers again.
  int stale = 0;
  for (size_t p = 0; p < plan.probes.size(); ++p) {
    const auto [u, v] = plan.probes[p];
    if (ops[c.probes_pre + p].response != ops[c.probes_post + p].response)
      result->CheckFailed("probe (" + std::to_string(u) + ", " + std::to_string(v) +
                          ") answered differently before and after COMPACT");
    if (!plan.mutated->CheckClassify(u, v, ops[c.probes_post + p].response).empty())
      ++stale;
    const std::string error =
        s.base->CheckClassify(u, v, ops[c.probes_reload + p].response);
    if (!error.empty()) result->CheckFailed("after RELOAD: " + error);
  }
  expect(c.compact, "OK compacted=", true);
  expect(c.reload, "OK reloaded model_version=", true);
  return stale;
}

// Checks reads that may have seen mutated state: answers near a mutation
// may legitimately change, everything else must match the checkpoint.
void CheckMutationWindowRead(const ServeSetup& s, const Op& op,
                             bool deletions_visible, Result* result) {
  const MutationPlan& plan = s.plan;
  bool topk = false;
  int i = -1, j = -1;
  ParseRead(op.line, &topk, &i, &j);
  const std::string& line = op.response;
  if (line.rfind("ERR ", 0) == 0) {
    const bool removed = (plan.deleted.count(i) &&
                          line == "ERR POI " + std::to_string(i) + " was removed") ||
                         (!topk && plan.deleted.count(j) &&
                          line == "ERR POI " + std::to_string(j) + " was removed");
    if (!removed) result->CheckFailed("'" + op.line + "' answered '" + line + "'");
    return;
  }
  if (!topk) {
    if (!plan.dirty[i] && !plan.dirty[j]) {
      const std::string error = s.base->CheckClassify(i, j, line);
      if (!error.empty()) result->CheckFailed(error);
      return;
    }
    std::istringstream in(line);
    std::string ok, rel, score, dist;
    in >> ok >> rel >> score >> dist;
    if (ok != "OK" || s.base->ClassOf(rel) < 0 || dist.rfind("dist_km=", 0) != 0 ||
        std::fabs(std::strtod(dist.c_str() + 8, nullptr) - s.base->DistanceKm(i, j)) >
            6e-4)
      result->CheckFailed("'" + op.line + "' answered '" + line + "'");
    return;
  }
  std::vector<TopKEntry> entries;
  if (!ParseTopK(line, &entries) || static_cast<int>(entries.size()) > kTopK) {
    result->CheckFailed("'" + op.line + "' answered '" + line + "'");
    return;
  }
  const int n = s.city.num_pois();
  for (const TopKEntry& e : entries) {
    const bool bad_id = e.id < 0 || e.id >= n + kAddPoi || e.id == i;
    const bool bad_dist =
        !bad_id && e.id < n &&
        (std::fabs(e.dist_km - s.base->DistanceKm(i, e.id)) > 6e-4 ||
         e.dist_km > kTopKRadiusKm + 6e-4);
    if (bad_id || bad_dist || (deletions_visible && plan.deleted.count(e.id))) {
      result->CheckFailed("'" + op.line + "' answered '" + line + "'");
      return;
    }
  }
}

}  // namespace

void RunServeRead(const Options& options, Result* result) {
  std::unique_ptr<ServeSetup> setup = SetUp(options, /*mutate=*/false, result);
  if (!result->correct()) return;
  Rng rng(options.seed);
  const ZipfIds zipf(setup->city.num_pois(), kZipfExponent, rng);
  ServerProcess server;
  if (!StartServer(options, &server, result)) return;
  Client client(server.port(), kReadConnections + 1);  // + STATS connection.
  if (!client.ok()) {
    result->CheckFailed("cannot connect to prim_serve");
    return;
  }
  result->Set("setup_s", NowS() - ProcessStartS());

  const int rounds = Rounds(options);
  const int reads = static_cast<int>(kOfferedRps * kRoundS) * rounds;
  std::vector<Op> ops;
  const std::map<std::string, double> before =
      options.trace ? QueryStats(client, kReadConnections, result)
                    : std::map<std::string, double>();
  const double cpu0 = ProcessCpuSeconds(server.pid());
  const double start = NowS() + 0.05;
  AddReads(reads, start, kRoundS * rounds, 0, kReadConnections, zipf, rng, &ops);
  std::string error;
  if (!client.Run(ops, 0, ops.size(), &error)) {
    result->CheckFailed("open loop: " + error);
    return;
  }
  const double cpu1 = ProcessCpuSeconds(server.pid());
  if (options.trace) {
    const std::map<std::string, double> after =
        QueryStats(client, kReadConnections, result);
    ReportStats(before, after, cpu1 - cpu0, reads, result);
    result->Set("serve.overlay_edges", Stat(after, "overlay_edges"));
  }
  ReportReads(ops, 0, ops.size(), result);

  // Closed-loop saturation on fresh connections.
  Client saturating(server.port(), kSaturationConnections);
  if (!saturating.ok()) {
    result->CheckFailed("cannot connect to prim_serve");
    return;
  }
  const size_t sat_begin = ops.size();
  AddReads(kSaturationRequests, -1.0, 0.0, 0, kSaturationConnections, zipf, rng,
           &ops);
  if (!saturating.Run(ops, sat_begin, ops.size(), &error)) {
    result->CheckFailed("saturation: " + error);
    return;
  }
  // Throughput of each chunk of consecutive answers; a stall costs one
  // chunk of ten, not the whole figure.
  std::vector<double> done;
  for (size_t k = sat_begin; k < ops.size(); ++k) done.push_back(ops[k].done);
  std::sort(done.begin(), done.end());
  std::vector<double> chunk_rps;
  for (size_t c = kSaturationChunk; c < done.size(); c += kSaturationChunk)
    chunk_rps.push_back(kSaturationChunk / (done[c] - done[c - kSaturationChunk]));
  const double max_rps = Median(chunk_rps);
  result->Set("job_s", kSaturationRequests / max_rps);
  result->Set("max_rps", max_rps);
  result->Set("peak_rss_mb", PeakRssMb(server.pid()));
  result->attempted = static_cast<int64_t>(ops.size());

  const int status = server.Stop();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    result->CheckFailed("prim_serve did not drain and exit 0 on SIGTERM");
  CheckBaseReads(ops, 0, ops.size(), {}, *setup->base, result);
  unlink(setup->checkpoint.c_str());
}

void RunServeMutate(const Options& options, Result* result) {
  std::unique_ptr<ServeSetup> setup = SetUp(options, /*mutate=*/true, result);
  if (!result->correct()) return;
  const ServeSetup& s = *setup;
  Rng rng(options.seed);
  const ZipfIds zipf(s.city.num_pois(), kZipfExponent, rng);
  ServerProcess server;
  if (!StartServer(options, &server, result)) return;
  const int control = kReadConnections;
  Client client(server.port(), kReadConnections + 1);
  if (!client.ok()) {
    result->CheckFailed("cannot connect to prim_serve");
    return;
  }
  result->Set("setup_s", NowS() - ProcessStartS());

  // Reads over the whole run; one cycle at the start of each round.
  const int rounds = Rounds(options);
  const int reads_per_round = static_cast<int>(kOfferedRps * kRoundS);
  const double start = NowS() + 0.05;
  std::vector<Op> ops;
  AddReads(reads_per_round * rounds, start, kRoundS * rounds, 0,
           kReadConnections, zipf, rng, &ops);
  const size_t reads_end = ops.size();
  std::vector<Cycle> cycles;
  for (int r = 0; r < rounds; ++r)
    cycles.push_back(AddCycle(s, start + r * kRoundS,
                              r == 0 ? -1 : static_cast<int>(ops.size()) - 1,
                              control, options.trace, &ops));

  const std::map<std::string, double> before =
      options.trace ? QueryStats(client, control, result)
                    : std::map<std::string, double>();
  const double cpu0 = ProcessCpuSeconds(server.pid());
  std::string error;
  if (!client.Run(ops, 0, ops.size(), &error)) {
    result->CheckFailed("open loop: " + error);
    return;
  }
  const double cpu1 = ProcessCpuSeconds(server.pid());
  int64_t requests = static_cast<int64_t>(ops.size());
  if (options.trace) {
    const std::map<std::string, double> after = QueryStats(client, control, result);
    requests -= rounds;  // The cycles' own STATS lines.
    ReportStats(before, after, cpu1 - cpu0, requests, result);
    result->Set("serve.net.addrel_p50_ms", Stat(after, "addrel_p50_ms"));
    std::vector<double> overlay;
    for (const Cycle& c : cycles)
      overlay.push_back(Stat(ParseStats(ops[c.stats].response), "overlay_edges"));
    result->Set("serve.overlay_edges", Median(overlay));
  }
  result->Set("peak_rss_mb", PeakRssMb(server.pid()));
  const int status = server.Stop();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    result->CheckFailed("prim_serve did not drain and exit 0 on SIGTERM");

  ReportReads(ops, 0, reads_end, result);
  std::vector<double> mutate_ms, compact_ms, reload_ms, cycle_s;
  for (const Cycle& c : cycles) {
    for (size_t k = c.begin; k < c.mutations_end; ++k)
      mutate_ms.push_back((ops[k].done - ops[k].sent) * 1e3);
    compact_ms.push_back((ops[c.compact].done - ops[c.compact].sent) * 1e3);
    reload_ms.push_back((ops[c.reload].done - ops[c.reload].sent) * 1e3);
    cycle_s.push_back(ops[c.end - 1].done - ops[c.begin].sent);
    result->failed += CheckCycle(s, ops, c, result);
  }
  result->Set("job_s", Median(cycle_s));
  result->Set("mutate_p50_ms", Median(mutate_ms));
  result->Set("compact_ms", Median(compact_ms));
  result->Set("reload_ms", Median(reload_ms));
  result->attempted = static_cast<int64_t>(ops.size()) -
                      (options.trace ? static_cast<int64_t>(rounds) : 0);

  // A read saw only checkpoint state when it was answered before its
  // round's cycle began or sent after that cycle's RELOAD was answered.
  std::vector<uint8_t> base_state(reads_end, 1);
  for (size_t k = 0; k < reads_end; ++k) {
    for (const Cycle& c : cycles) {
      const double window_begin = ops[c.begin].sent;
      const double window_end = ops[c.reload].done;
      if (ops[k].done < window_begin || ops[k].sent > window_end) continue;
      base_state[k] = 0;
      const bool deletions_visible = ops[k].sent > ops[c.mutations_end - 1].done &&
                                     ops[k].done < ops[c.reload].sent;
      CheckMutationWindowRead(s, ops[k], deletions_visible, result);
      break;
    }
  }
  CheckBaseReads(ops, 0, reads_end, base_state, *s.base, result);
  unlink(s.checkpoint.c_str());
}

}  // namespace primbench

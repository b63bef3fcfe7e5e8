// One workload of the wave-pipeline benchmark, run in one process.
//
//   wavebench --workload <train_wave|train_hybrid|serve_chat>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints one JSON document of raw measurements as the last line of
// stdout; wavebench/run.py turns it into metrics and checks. --trace 0 is
// the timed pass. --trace 1 is the separate traced pass: it reads the
// allocation counters, records the runtime's training timeline, wraps
// calls into each layer in spans and adds the layer probes.
//
// The counting allocator of src/tensor/alloc_stats.cpp is in every binary
// that links the hanayo library, this one included: that object file
// defines the global operator new, so the linker takes it to resolve the
// first operator new reference whether or not alloc_stats() is called.
// Both passes therefore run on it, as every other hanayo binary does.
//
// Every input comes from --seed and is generated before the clock starts:
// the training batch, the serving prompts and the open-loop arrival times.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hanayo.hpp"
#include "tensor/ops.hpp"
#include "tensor/alloc_stats.hpp"
#include "tensor/parallel.hpp"

using namespace hanayo;

namespace {

// ---- workload definitions ---------------------------------------------
//
// train_wave: the paper's wave pipeline at the deepest depth 4 cores hold
// (16 stages on 17 layers), so every micro-batch crosses 15 stage
// boundaries each way and no collective runs. train_hybrid: the D x P
// hybrid, where the gradient all-reduce runs every step. serve_chat:
// open-loop chat traffic through a forward-only wave pipeline with paged
// KV and prefix caching.

constexpr int kWaves = 2;
constexpr int kMicroBatches = 8;  // per replica
constexpr int kSetups = 3;        // set-ups per run; setup_s is their median
constexpr int kWarmSteps = 3;     // also the Reference-checked prefix
// The tolerance tests/runtime/test_equivalence.cpp applies to dp > 1
// losses: the Reference backend averages all dp*B micro-batches in one
// order, the replicas average per replica and then all-reduce.
constexpr float kDpLossTolerance = 5e-4f;

// Open loop: a fixed absolute arrival rate, never derived from capacity
// measured at run time. The same value is recorded in BENCHMARK.json's
// "why" for serve_chat.
constexpr double kServeRate = 25.0;  // requests per second
constexpr int kServeMaxBatch = 4;
constexpr int kSystemPromptTokens = 32;
constexpr int kWarmRequests = 8;
constexpr int kReferenceSample = 8;

struct TrainSpec {
  int P = 4;
  int dp = 1;
};

model::ModelConfig train_model() {
  return ModelConfig::tiny(/*layers=*/14, /*hidden=*/64, /*heads=*/4,
                           /*vocab=*/512, /*seq=*/32);
}

model::ModelConfig serve_model() {
  return ModelConfig::tiny(/*layers=*/8, /*hidden=*/64, /*heads=*/4,
                           /*vocab=*/512, /*seq=*/96);
}

Session build_train(const TrainSpec& t, uint64_t seed, Algo algo) {
  return Session::builder()
      .model(train_model())
      .algo(algo)
      .pipeline(t.P)
      .waves(kWaves)
      .micro_batches(kMicroBatches)
      .data_parallel(t.dp)
      .backend(BackendKind::Threads)
      .seed(seed)
      .record_timeline(true)
      .build();
}

InferenceSession::Builder serve_builder(uint64_t seed, Algo algo) {
  auto b = InferenceSession::builder();
  b.model(serve_model())
      .algo(algo)
      .pipeline(2)
      .waves(kWaves)
      .backend(BackendKind::Threads)
      .max_batch(kServeMaxBatch)
      .max_new_tokens(24)
      .paged_kv()
      .seed(seed);
  return b;
}

// ---- small utilities --------------------------------------------------

double now_s() { return runtime::serve_clock_s(); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint32_t float_bits(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

/// Minimal JSON writer: every value call inserts the separating comma.
class Json {
 public:
  Json& key(const char* k) {
    sep();
    s_ += '"';
    s_ += k;
    s_ += "\":";
    return *this;
  }
  Json& num(double v) {
    sep();
    if (!std::isfinite(v)) {
      s_ += "null";
    } else {
      char b[40];
      std::snprintf(b, sizeof b, "%.17g", v);
      s_ += b;
    }
    comma_ = true;
    return *this;
  }
  Json& integer(int64_t v) {
    sep();
    s_ += std::to_string(v);
    comma_ = true;
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    s_ += v ? "true" : "false";
    comma_ = true;
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    s_ += '"';
    s_ += v;
    s_ += '"';
    comma_ = true;
    return *this;
  }
  template <class T>
  Json& nums(const std::vector<T>& v) {
    open('[');
    for (const T& x : v) num(static_cast<double>(x));
    return close(']');
  }
  /// Inserts an already rendered JSON value.
  Json& raw(const std::string& v) {
    sep();
    s_ += v;
    comma_ = true;
    return *this;
  }
  Json& open(char c) {
    sep();
    s_ += c;
    return *this;
  }
  Json& close(char c) {
    s_ += c;
    comma_ = true;
    return *this;
  }
  const std::string& text() const { return s_; }

 private:
  void sep() {
    if (comma_) s_ += ',';
    comma_ = false;
  }
  std::string s_;
  bool comma_ = false;
};

/// Benchmark-side spans: recorded in memory on the main thread, written
/// out at the end. `reps` is the number of identical calls one span
/// wraps, so a probe of a microsecond-scale call is not dominated by the
/// clock reads around it.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 14); }

  int begin(const char* name, int reps = 1) {
    spans_.push_back({name, now_s(), 0.0, current_, reps});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void end(int id) {
    spans_[static_cast<size_t>(id)].end = now_s();
    current_ = spans_[static_cast<size_t>(id)].parent;
  }

  void write(Json& j) const {
    j.key("spans").open('[');
    for (const Span& s : spans_) {
      j.open('{');
      j.key("name").str(s.name);
      j.key("start").num(s.start);
      j.key("end").num(s.end);
      j.key("parent").integer(s.parent);
      j.key("reps").integer(s.reps);
      j.close('}');
    }
    j.close(']');
  }

 private:
  struct Span {
    const char* name;
    double start, end;
    int parent;
    int reps;
  };
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Runs `spans` spans of `reps` calls of `f` each under `name`.
template <class F>
void probe(Tracer& tr, const char* name, int spans, int reps, F&& f) {
  for (int s = 0; s < spans; ++s) {
    const int id = tr.begin(name, reps);
    for (int r = 0; r < reps; ++r) f();
    tr.end(id);
  }
}

// ---- training ---------------------------------------------------------

struct StepLog {
  std::vector<double> call, ret;  // seconds since the timed pass began
  std::vector<double> wall;       // StepReport::wall_s
  std::vector<float> loss;
  // Per step, when each micro-batch's output left the last stage (the end
  // of its forward there), in seconds from the step's timeline origin.
  std::vector<std::vector<double>> outputs;
  int exceptions = 0;
};

std::vector<double> stage_outputs(const RunReport& rep) {
  int last = 0;
  for (const auto& rank : rep.timeline) {
    for (const runtime::ComputeSpan& c : rank) last = std::max(last, c.pos);
  }
  std::vector<double> out;
  for (const auto& rank : rep.timeline) {
    for (const runtime::ComputeSpan& c : rank) {
      if (!c.backward && c.pos == last) out.push_back(c.end);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The timed pass: steps until `seconds` have elapsed. `before` and
/// `after` run around every step, outside its timing; `on_report` gets the
/// session report after each step. The session records
/// the runtime's compute timeline (a clock read and a stored span per
/// compute action), which gives the micro-batch output times.
template <class Before, class After, class OnReport>
StepLog timed_steps(Session& s, const runtime::Batch& batch, double seconds,
                    Before&& before, After&& after, OnReport&& on_report) {
  StepLog log;
  log.call.reserve(4096);
  log.ret.reserve(4096);
  log.loss.reserve(4096);
  const double t0 = now_s();
  while (now_s() - t0 < seconds) {
    before();
    const double c = now_s() - t0;
    float loss = 0.0f;
    try {
      loss = s.step(batch).loss;
      after();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "step failed: %s\n", e.what());
      ++log.exceptions;
      break;
    }
    log.call.push_back(c);
    log.ret.push_back(now_s() - t0);
    log.loss.push_back(loss);
    const RunReport rep = s.report();
    log.wall.push_back(rep.steps.back().wall_s);
    log.outputs.push_back(stage_outputs(rep));
    on_report(rep);
  }
  return log;
}

void write_steps(Json& j, const StepLog& log) {
  j.key("step_call_s").nums(log.call);
  j.key("step_return_s").nums(log.ret);
  j.key("step_wall_s").nums(log.wall);
  j.key("step_loss").nums(log.loss);
  j.key("step_outputs_s").open('[');
  for (const auto& o : log.outputs) j.nums(o);
  j.close(']');
  j.key("step_exceptions").integer(log.exceptions);
}

/// Set-up, repeated kSetups times: build() through the warm-up steps.
/// Returns the last session; the warm-up losses of every set-up are the
/// prefix checked against the Reference backend.
Session train_setups(const TrainSpec& t, uint64_t seed,
                     const runtime::Batch& batch, std::vector<double>& setup_s,
                     std::vector<std::vector<float>>& warm_losses) {
  std::optional<Session> s;
  for (int k = 0; k < kSetups; ++k) {
    s.reset();
    const double t0 = now_s();
    s.emplace(build_train(t, seed, Algo::Hanayo));
    std::vector<float> losses;
    for (int i = 0; i < kWarmSteps; ++i) losses.push_back(s->step(batch).loss);
    setup_s.push_back(now_s() - t0);
    warm_losses.push_back(losses);
  }
  return std::move(*s);
}

/// Threads == Reference on the warm-up prefix: bitwise for dp == 1; for
/// dp > 1 within kDpLossTolerance of Reference and bitwise equal across
/// set-ups (run-to-run determinism).
void check_prefix(const TrainSpec& t, uint64_t seed,
                 const runtime::Batch& batch,
                 const std::vector<std::vector<float>>& warm_losses,
                 Json& j) {
  Session ref = Session::builder()
                    .model(train_model())
                    .algo(Algo::Hanayo)
                    .pipeline(t.P)
                    .waves(kWaves)
                    .micro_batches(kMicroBatches * t.dp)
                    .backend(BackendKind::Reference)
                    .seed(seed)
                    .build();
  std::vector<float> ref_losses;
  for (int i = 0; i < kWarmSteps; ++i) ref_losses.push_back(ref.step(batch).loss);
  int failed = 0;
  int64_t max_ulp = 0;
  for (const auto& losses : warm_losses) {
    for (int i = 0; i < kWarmSteps; ++i) {
      const float a = losses[static_cast<size_t>(i)];
      const float b = ref_losses[static_cast<size_t>(i)];
      const int64_t ulp = std::llabs(static_cast<int64_t>(float_bits(a)) -
                                     static_cast<int64_t>(float_bits(b)));
      max_ulp = std::max(max_ulp, ulp);
      const bool same_run = float_bits(a) ==
                            float_bits(warm_losses[0][static_cast<size_t>(i)]);
      const bool ok = std::isfinite(a) &&
                      (t.dp == 1 ? ulp == 0
                                 : same_run && std::fabs(a - b) <= kDpLossTolerance);
      if (!ok) {
        std::fprintf(stderr, "prefix step %d: threads %.9g reference %.9g\n",
                     i, a, b);
        ++failed;
      }
    }
  }
  j.key("prefix_checked").integer(static_cast<int64_t>(warm_losses.size()) *
                                  kWarmSteps);
  j.key("prefix_failed").integer(failed);
  j.key("prefix_rule").str(t.dp == 1 ? "bitwise" : "tolerance");
  j.key("prefix_max_ulp").integer(max_ulp);
}

void layer_probes(Tracer& tr, const model::ModelConfig& m,
                  const schedule::ScheduleRequest& req, bool forward_only,
                  int64_t p2p_tokens, uint64_t seed, Json& j);

void train_traced(const TrainSpec& t, Session& s, const runtime::Batch& batch,
                  double seconds, uint64_t seed, Json& j);

void run_train(const TrainSpec& t, uint64_t seed, double seconds, bool traced,
               Json& j) {
  const model::ModelConfig m = train_model();
  tensor::Rng rng(seed);
  const runtime::Batch batch =
      synthetic_batch(m, static_cast<int64_t>(t.dp) * kMicroBatches, rng);
  j.key("kind").str("train");
  j.key("rows").integer(static_cast<int64_t>(t.dp) * kMicroBatches);

  std::vector<double> setup_s;
  std::vector<std::vector<float>> warm_losses;
  Session s = train_setups(t, seed, batch, setup_s, warm_losses);
  j.key("setup_s").nums(setup_s);
  if (!traced) {
    const StepLog log = timed_steps(s, batch, seconds, [] {}, [] {}, [](const RunReport&) {});
    j.key("peak_rss_mb").num(peak_rss_mb());
    write_steps(j, log);
  } else {
    train_traced(t, s, batch, seconds, seed, j);
  }
  check_prefix(t, seed, batch, warm_losses, j);
}

/// The traced pass of a training workload and its layer probes.
void train_traced(const TrainSpec& t, Session& s, const runtime::Batch& batch,
                  double seconds, uint64_t seed, Json& j) {
  const model::ModelConfig m = train_model();
  Tracer tr;

  // Traced timed pass: allocation counts and the runtime's own compute
  // timeline (replica 0) for every step.
  std::vector<int64_t> allocs;
  Json tl;
  tl.open('[');
  tensor::AllocStats before{};
  int step_span = -1;
  const StepLog log = timed_steps(
      s, batch, seconds,
      [&] {
        step_span = tr.begin("api.Session::step");
        before = tensor::alloc_stats();
      },
      [&] {
        allocs.push_back((tensor::alloc_stats() - before).allocs);
        tr.end(step_span);
      },
      [&](const RunReport& rep) {
        tl.open('{');
        tl.key("wall_s").num(rep.steps.back().wall_s);
        tl.key("ranks").open('[');
        for (const auto& rank : rep.timeline) {
          tl.open('[');
          for (const runtime::ComputeSpan& c : rank) {
            tl.open('[').integer(c.mb).integer(c.pos).boolean(c.backward);
            tl.num(c.start).num(c.end).close(']');
          }
          tl.close(']');
        }
        tl.close(']').close('}');
      });
  tl.close(']');
  const RunReport rep = s.report();
  j.key("peak_rss_mb").num(peak_rss_mb());
  write_steps(j, log);
  j.key("allocs_per_step").nums(allocs);
  j.key("timelines").raw(tl.text());
  int64_t peak_cache = 0;
  for (int64_t b : rep.memory.peak_cache_bytes) peak_cache = std::max(peak_cache, b);
  j.key("peak_cache_bytes").integer(peak_cache);

  // Hanayo against DAPPLE at the same P, B and dp, alternating steps so
  // both see the same host conditions.
  {
    Session dapple = build_train(t, seed, Algo::Dapple);
    for (int i = 0; i < kWarmSteps; ++i) dapple.step(batch);
    std::vector<double> h, d;
    const int pairs = t.dp > 1 ? 8 : 12;
    for (int i = 0; i < pairs; ++i) {
      int id = tr.begin("api.Session::step[dapple]");
      d.push_back(dapple.step(batch).wall_s);
      tr.end(id);
      id = tr.begin("api.Session::step[hanayo]");
      h.push_back(s.step(batch).wall_s);
      tr.end(id);
    }
    j.key("hanayo_step_s").nums(h);
    j.key("dapple_step_s").nums(d);
  }

  // Planner prediction on this machine's measured kernel and transport
  // numbers. The calibration goes to a separate Sim session: it changes
  // the schedule's ordering costs, and the measured session must run the
  // timed pass's schedule.
  {
    const int id = tr.begin("perf::calibrate");
    const perf::Calibration cal = perf::calibrate(m, 1, 3, 20);
    tr.end(id);
    Session sim = Session::builder()
                      .model(m)
                      .algo(Algo::Hanayo)
                      .pipeline(t.P)
                      .waves(kWaves)
                      .micro_batches(kMicroBatches)
                      .data_parallel(t.dp)
                      .backend(BackendKind::Sim)
                      .calibration(cal)
                      .build();
    const perf::Candidate c = sim.predict();
    j.key("predicted_bubble_ratio").num(c.bubble_ratio);
    j.key("predicted_step_s")
        .num(c.throughput_seq_s > 0
                 ? static_cast<double>(t.dp) * kMicroBatches / c.throughput_seq_s
                 : 0.0);
  }

  // Model bytes crossing the network per step, computed from the schedule.
  {
    const schedule::Schedule* sched = s.schedule();
    const int64_t act_bytes = m.seq * m.hidden * static_cast<int64_t>(sizeof(float));
    const int64_t sends = sched->count(schedule::Op::SendAct) +
                          sched->count(schedule::Op::SendGrad);
    j.key("p2p_bytes_per_step").integer(sends * act_bytes * t.dp);
    int64_t param_bytes = 0;
    for (const auto& d : m.layer_descs()) param_bytes += d.param_count() * 4;
    // Naive all-reduce: each non-root replica sends its gradients to the
    // root and receives the sum back.
    j.key("allreduce_bytes_per_step").integer(2 * (t.dp - 1) * param_bytes);
  }
  layer_probes(tr, m, s.config().sched, false, m.seq, seed, j);
  tr.write(j);
}

// ---- serving ----------------------------------------------------------

struct ServeRequest {
  std::vector<float> ids;
  int new_tokens = 0;
  double due_s = 0.0;  // offset from the start of the timed pass
};

/// A seeded Fisher-Yates shuffle.
void shuffle(tensor::Rng& rng, std::vector<int64_t>& v) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<size_t>(rng.index(static_cast<int64_t>(i)))]);
  }
}

/// Values lo, lo+1, ..., hi repeated in order to fill n slots, shuffled.
std::vector<int64_t> shuffled_range(tensor::Rng& rng, size_t n, int64_t lo,
                                    int64_t hi) {
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = lo + static_cast<int64_t>(i) % (hi - lo + 1);
  shuffle(rng, v);
  return v;
}

/// The request mix of n requests over `seconds`: 3/4 chat turns behind
/// one 32-token system prompt plus 8-16 unique tokens, 1/4 cold prompts
/// of 16-48 unique tokens, 8-24 new tokens each. Arrivals are a Poisson
/// process conditioned on n arrivals in the window: n uniform times,
/// sorted. The seed draws the order, the arrival times and the token ids;
/// the counts and lengths are the same multiset for every seed, so a run's
/// load does not swing with its seed.
std::vector<ServeRequest> make_requests(tensor::Rng& rng,
                                        const std::vector<float>& system,
                                        int n, double seconds, int64_t vocab) {
  const auto count = static_cast<size_t>(n);
  const size_t shared = (3 * count + 2) / 4;
  std::vector<int64_t> is_shared(count, 0);
  std::fill(is_shared.begin(), is_shared.begin() + static_cast<long>(shared), 1);
  shuffle(rng, is_shared);
  std::vector<int64_t> short_tail = shuffled_range(rng, shared, 8, 16);
  std::vector<int64_t> cold_len = shuffled_range(rng, count - shared, 16, 48);
  std::vector<int64_t> new_tokens = shuffled_range(rng, count, 8, 24);
  std::vector<double> due(count);
  for (double& t : due) t = rng.uniform() * seconds;
  std::sort(due.begin(), due.end());

  std::vector<ServeRequest> out(count);
  size_t next_shared = 0, next_cold = 0;
  for (size_t i = 0; i < count; ++i) {
    ServeRequest& r = out[i];
    r.due_s = due[i];
    const bool shared = is_shared[i] != 0;
    const int64_t unique = shared ? short_tail[next_shared++]
                                  : cold_len[next_cold++];
    if (shared) r.ids = system;
    for (int64_t k = 0; k < unique; ++k) {
      r.ids.push_back(static_cast<float>(rng.index(vocab)));
    }
    r.new_tokens = static_cast<int>(new_tokens[i]);
  }
  return out;
}

tensor::Tensor prompt_tensor(const std::vector<float>& ids) {
  return tensor::Tensor({1, static_cast<int64_t>(ids.size())}, ids);
}

/// Set-up: build() through a closed warm-up batch that fills the prefix
/// cache, grows the arenas and compiles the per-batch-size schedules.
InferenceSession serve_setup(uint64_t seed, Algo algo,
                             const std::vector<ServeRequest>& warm) {
  InferenceSession s = serve_builder(seed, algo).build();
  for (const ServeRequest& r : warm) s.enqueue(prompt_tensor(r.ids), r.new_tokens);
  const auto done = s.run();
  for (size_t i = 0; i < done.size(); ++i) {
    if (!done[i].served() ||
        done[i].tokens.size() != static_cast<size_t>(warm[i].new_tokens)) {
      throw std::runtime_error("warm-up request was not served in full");
    }
  }
  return s;
}

struct Stream {
  std::vector<double> token_s;  // seconds since the timed pass began
  std::vector<int64_t> tokens;
};

struct OpenLoopResult {
  std::vector<Completion> done;
  std::vector<Stream> streams;
  std::vector<double> enqueue_s;  // actual enqueue time (generator lag)
  double t0 = 0.0;      // serve_clock_s() at the start of the pass
  double wall_s = 0.0;  // until the last completion
  bool drain_failed = false;
};

/// The open loop: a generator thread enqueues each request at its due
/// time, whatever the server is doing; this thread drains. Prompts are
/// tensors before the clock starts. With a tracer, each run() call is a
/// span.
OpenLoopResult open_loop(InferenceSession& server,
                         const std::vector<ServeRequest>& reqs, Tracer* tr) {
  const size_t n = reqs.size();
  OpenLoopResult r;
  r.streams.resize(n);
  r.enqueue_s.resize(n);
  std::vector<tensor::Tensor> prompts;
  std::vector<TokenCallback> callbacks;
  for (size_t i = 0; i < n; ++i) {
    prompts.push_back(prompt_tensor(reqs[i].ids));
    Stream& st = r.streams[i];
    st.token_s.reserve(static_cast<size_t>(reqs[i].new_tokens));
    st.tokens.reserve(static_cast<size_t>(reqs[i].new_tokens));
    callbacks.emplace_back([&st, &r](const TokenEvent& e) {
      st.token_s.push_back(now_s() - r.t0);
      st.tokens.push_back(e.token);
    });
  }
  // Both threads spin rather than sleep: the generator so each request
  // leaves at its due time, the drain thread so an arrival at an idle
  // server is picked up at once. A sleeping thread's wake-up on a virtual
  // CPU costs a host scheduling delay that varies from run to run, and
  // it would land in every TTFT. This keeps 4 busy threads: 2 workers,
  // the generator and the drain thread.
  std::atomic<size_t> enqueued{0};
  r.t0 = now_s();
  std::thread generator([&] {
    for (size_t i = 0; i < n; ++i) {
      while (now_s() - r.t0 < reqs[i].due_s) {
      }
      r.enqueue_s[i] = now_s() - r.t0;
      server.enqueue(std::move(prompts[i]), reqs[i].new_tokens,
                     std::move(callbacks[i]));
      enqueued.store(i + 1, std::memory_order_release);
    }
  });
  r.done.reserve(n);
  try {
    while (r.done.size() < n) {
      if (enqueued.load(std::memory_order_acquire) == r.done.size()) continue;
      const int id = tr ? tr->begin("api.InferenceSession::run") : -1;
      auto batch = server.run();
      if (tr) tr->end(id);
      for (auto& c : batch) r.done.push_back(std::move(c));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drain failed: %s\n", e.what());
    r.drain_failed = true;
  }
  generator.join();
  r.wall_s = now_s() - r.t0;
  return r;
}

void write_report_delta(Json& j, const ServeReport& a, const ServeReport& b) {
  j.open('{');
  j.key("submitted").integer(b.submitted - a.submitted);
  j.key("completed").integer(b.completed - a.completed);
  j.key("rejected").integer(b.rejected - a.rejected);
  j.key("cancelled").integer(b.cancelled - a.cancelled);
  j.key("timed_out").integer(b.timed_out - a.timed_out);
  j.key("requests").integer(b.requests - a.requests);
  j.key("prompt_tokens").integer(b.prompt_tokens - a.prompt_tokens);
  j.key("generated_tokens").integer(b.generated_tokens - a.generated_tokens);
  j.key("prefill_passes").integer(b.prefill_passes - a.prefill_passes);
  j.key("decode_passes").integer(b.decode_passes - a.decode_passes);
  j.key("prefill_s").num(b.prefill_s - a.prefill_s);
  j.key("decode_s").num(b.decode_s - a.decode_s);
  j.key("prefix_hit_tokens").integer(b.prefix_hit_tokens - a.prefix_hit_tokens);
  j.key("kv_pages_peak").integer(b.kv_pages_peak);
  j.key("peak_kv_bytes").integer(b.peak_kv_bytes);
  j.close('}');
}

void serve_traced(InferenceSession& server,
                  const std::vector<ServeRequest>& reqs,
                  const std::vector<ServeRequest>& warm, int64_t window_allocs,
                  Tracer& tr, uint64_t seed, Json& j);

void run_serve(uint64_t seed, double seconds, bool traced, Json& j) {
  const model::ModelConfig m = serve_model();
  tensor::Rng rng(seed);
  std::vector<float> system;
  for (int i = 0; i < kSystemPromptTokens; ++i) {
    system.push_back(static_cast<float>(rng.index(m.vocab)));
  }
  const int n = std::max(1, static_cast<int>(std::ceil(kServeRate * seconds)));
  const std::vector<ServeRequest> reqs =
      make_requests(rng, system, n, seconds, m.vocab);
  const std::vector<ServeRequest> warm = make_requests(
      rng, system, kWarmRequests, kWarmRequests / kServeRate, m.vocab);
  j.key("kind").str("serve");

  Tracer tr;
  const int setup_span = tr.begin("api.InferenceSession::build+warmup", kSetups);
  std::vector<double> setup_s;
  std::optional<InferenceSession> s;
  for (int k = 0; k < kSetups; ++k) {
    s.reset();
    const double t0 = now_s();
    s.emplace(serve_setup(seed, Algo::Hanayo, warm));
    setup_s.push_back(now_s() - t0);
  }
  InferenceSession& server = *s;
  tr.end(setup_span);
  const tensor::AllocStats alloc0 = traced ? tensor::alloc_stats() : tensor::AllocStats{};
  const ServeReport rep0 = server.report();
  const OpenLoopResult ol = open_loop(server, reqs, traced ? &tr : nullptr);
  const ServeReport rep1 = server.report();
  const int64_t window_allocs =
      traced ? (tensor::alloc_stats() - alloc0).allocs : 0;
  j.key("peak_rss_mb").num(peak_rss_mb());
  j.key("setup_s").nums(setup_s);

  // Correctness: every request served in full, streamed == returned.
  std::vector<int> ok(static_cast<size_t>(n), 0);
  int64_t wrong_count = 0, stream_mismatch = 0, not_served = 0;
  const bool complete = ol.done.size() == static_cast<size_t>(n);
  if (complete) {
    for (size_t i = 0; i < ol.done.size(); ++i) {
      const Completion& c = ol.done[i];
      const bool served = c.served();
      const bool count_ok =
          c.tokens.size() == static_cast<size_t>(reqs[i].new_tokens);
      const bool stream_ok = c.tokens == ol.streams[i].tokens;
      not_served += !served;
      wrong_count += served && !count_ok;
      stream_mismatch += !stream_ok;
      ok[i] = served && count_ok && stream_ok;
    }
  }
  const int64_t terminal =
      rep1.completed + rep1.rejected + rep1.cancelled + rep1.timed_out;
  const bool conserved = rep1.submitted == terminal &&
                         rep1.submitted - rep0.submitted == n;

  // A seeded sample decodes token-identically on the Reference backend.
  int64_t reference_mismatch = 0;
  std::vector<int> sample;
  if (complete) {
    tensor::Rng pick(tensor::Rng::split(seed, 0x5eed));
    InferenceSession ref =
        serve_builder(seed, Algo::Hanayo).backend(BackendKind::Reference).build();
    for (int k = 0; k < std::min(kReferenceSample, n); ++k) {
      const int i = static_cast<int>(pick.index(n));
      sample.push_back(i);
      ref.enqueue(prompt_tensor(reqs[static_cast<size_t>(i)].ids),
                  reqs[static_cast<size_t>(i)].new_tokens);
    }
    const auto got = ref.run();
    for (size_t k = 0; k < sample.size(); ++k) {
      const size_t i = static_cast<size_t>(sample[k]);
      if (k >= got.size() || got[k].tokens != ol.done[i].tokens) {
        ++reference_mismatch;
        ok[i] = 0;
      }
    }
  }

  j.key("requests").open('[');
  for (int i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(i);
    j.open('{');
    j.key("due").num(reqs[k].due_s);
    j.key("enqueued").num(ol.enqueue_s[k]);
    j.key("ok").boolean(ok[k] != 0);
    if (complete) {
      j.key("queue_wait").num(ol.done[k].admit_s >= 0
                                  ? ol.done[k].admit_s - ol.done[k].enqueue_s
                                  : -1.0);
    }
    j.key("token_times").nums(ol.streams[k].token_s);
    j.close('}');
  }
  j.close(']');
  j.key("wall_s").num(ol.wall_s);
  j.key("drain_failed").boolean(ol.drain_failed);
  j.key("conserved").boolean(conserved);
  j.key("not_served").integer(complete ? not_served : n);
  j.key("wrong_token_count").integer(wrong_count);
  j.key("stream_mismatch").integer(stream_mismatch);
  j.key("reference_checked").integer(static_cast<int64_t>(sample.size()));
  j.key("reference_mismatch").integer(reference_mismatch);
  j.key("window");
  write_report_delta(j, rep0, rep1);

  if (traced) serve_traced(server, reqs, warm, window_allocs, tr, seed, j);
}

/// The traced extras of the serving workload and its layer probes.
void serve_traced(InferenceSession& server,
                  const std::vector<ServeRequest>& reqs,
                  const std::vector<ServeRequest>& warm, int64_t window_allocs,
                  Tracer& tr, uint64_t seed, Json& j) {
  const model::ModelConfig m = serve_model();
  const auto n = static_cast<double>(reqs.size());
  j.key("window_allocs").integer(window_allocs);

  // Allocations of one steady-state decode pass: two drains of the same
  // prompt that differ only in continuation length (the differential
  // method of tests/runtime/test_alloc_decode.cpp).
  {
    const std::vector<float>& ids = reqs.front().ids;
    auto drain_allocs = [&](int new_tokens) {
      server.enqueue(prompt_tensor(ids), new_tokens);
      const tensor::AllocStats a = tensor::alloc_stats();
      server.run();
      return (tensor::alloc_stats() - a).allocs;
    };
    drain_allocs(4);
    const int64_t short_run = drain_allocs(4);
    const int64_t long_run = drain_allocs(20);
    j.key("allocs_per_decode_pass").num((long_run - short_run) / 16.0);
  }

  // Hanayo against DAPPLE forward-only pipelines on one closed batch of
  // the request mix, alternating so both see the same host conditions.
  {
    InferenceSession dapple = serve_setup(seed, Algo::Dapple, warm);
    std::vector<double> hs, ds;
    for (int i = 0; i < 4; ++i) {
      for (InferenceSession* x : {&dapple, &server}) {
        const bool is_dapple = x == &dapple;
        const int id = tr.begin(is_dapple ? "api.InferenceSession::run[dapple]"
                                          : "api.InferenceSession::run[hanayo]");
        const double t0 = now_s();
        for (const ServeRequest& r : warm) x->enqueue(prompt_tensor(r.ids), r.new_tokens);
        x->run();
        (is_dapple ? ds : hs).push_back(now_s() - t0);
        tr.end(id);
      }
    }
    j.key("hanayo_step_s").nums(hs);
    j.key("dapple_step_s").nums(ds);
  }

  // Planner prediction with this machine's calibration.
  {
    const int id = tr.begin("perf::calibrate");
    const perf::Calibration cal = perf::calibrate(m, 1, 3, 20);
    tr.end(id);
    double prompt_mean = 0.0, new_mean = 0.0;
    for (const ServeRequest& r : reqs) {
      prompt_mean += static_cast<double>(r.ids.size()) / n;
      new_mean += static_cast<double>(r.new_tokens) / n;
    }
    InferenceSession sim =
        serve_builder(seed, Algo::Hanayo)
            .backend(BackendKind::Sim)
            .calibration(cal)
            .offered_load(kServeRate)
            .prompt_tokens(static_cast<int64_t>(std::lround(prompt_mean)))
            .max_new_tokens(static_cast<int>(std::lround(new_mean)))
            .build();
    const ServeReport p = sim.predict();
    j.key("predicted_decode_pass_s").num(p.per_token_latency_s());
    j.key("predicted_prefill_pass_s")
        .num(p.prefill_passes > 0 ? p.prefill_s / p.prefill_passes : 0.0);
    j.key("predicted_utilization").num(p.utilization);
  }

  {
    const schedule::Schedule* sched = server.schedule();
    const int64_t sends = sched ? sched->count(schedule::Op::SendAct) : 0;
    // One decode pass at full batch moves one [1, 1, hidden] activation
    // per send.
    j.key("p2p_bytes_per_step").integer(sends * m.hidden * 4);
    j.key("allreduce_bytes_per_step").integer(0);
  }
  schedule::ScheduleRequest req = server.config().sched;
  req.B = kServeMaxBatch;
  layer_probes(tr, m, req, true, 1, seed, j);
  tr.write(j);
}

// ---- layer probes (traced pass) ---------------------------------------

/// Calls into each layer's public functions, one span per batch of calls.
/// `m` and `req` are the workload's model and schedule; prefill and
/// decode always use the serving model (the training model's 32
/// positions cannot hold a 48-token context).
void layer_probes(Tracer& tr, const model::ModelConfig& m,
                  const schedule::ScheduleRequest& req, bool forward_only,
                  int64_t p2p_tokens, uint64_t seed, Json& j) {
  tensor::IntraOpScope one_thread(1);  // the workloads' auto value
  tensor::Rng rng(tensor::Rng::split(seed, 0x1a7e5));
  float sink = 0.0f;

  // tensor: the training GEMM and the decode GEMV shapes.
  {
    const tensor::Tensor a = rng.randn({32, 64}), b = rng.randn({64, 256});
    const tensor::Tensor v = rng.randn({1, 64});
    probe(tr, "tensor::matmul[32x64x256]", 15, 200,
          [&] { sink += tensor::matmul(a, b)[0]; });
    probe(tr, "tensor::matmul[1x64x256]", 15, 2000,
          [&] { sink += tensor::matmul(v, b)[0]; });
  }

  // model: the heaviest stage of the workload's partition, forward and
  // backward of one micro-batch each, called alone.
  auto heaviest = [](const model::ModelConfig& mc, int stages) {
    const auto descs = mc.layer_descs();
    const auto ranges = model::partition_layers(descs, stages, mc.seq);
    model::StageRange best = ranges.front();
    double flops = -1.0;
    for (const auto& r : ranges) {
      const double f = model::stage_stats(descs, r, mc.seq).fwd_flops;
      if (f > flops) flops = f, best = r;
    }
    return best;
  };
  auto stage_input = [&](const model::ModelConfig& mc,
                         const model::StageRange& r, int64_t tokens) {
    if (mc.layer_descs()[static_cast<size_t>(r.begin)].type ==
        model::LayerDesc::Type::Embedding) {
      tensor::Tensor ids({1, tokens});
      for (int64_t i = 0; i < tokens; ++i) {
        ids[i] = static_cast<float>(rng.index(mc.vocab));
      }
      return ids;
    }
    return rng.randn({1, tokens, mc.hidden});
  };
  const int stages = schedule::stages_for(req);
  {
    const model::StageRange r = heaviest(m, stages);
    model::StageModule st(m.layer_descs(), r.begin, r.end, seed, m.init_std);
    const tensor::Tensor x = stage_input(m, r, m.seq);
    const tensor::Tensor dy = rng.randn(st.forward(x, 0).shape());
    st.backward(dy, 0);
    constexpr int kMb = 10;
    for (int s = 0; s < 10; ++s) {
      int id = tr.begin("model::StageModule::forward", kMb);
      for (int mb = 0; mb < kMb; ++mb) sink += st.forward(x, mb)[0];
      tr.end(id);
      id = tr.begin("model::StageModule::backward", kMb);
      for (int mb = 0; mb < kMb; ++mb) {
        const tensor::Tensor dx = st.backward(dy, mb);
        if (dx.numel() > 0) sink += dx[0];
      }
      tr.end(id);
    }
  }
  {
    const model::ModelConfig sm = serve_model();
    schedule::ScheduleRequest sreq;
    sreq.algo = Algo::Hanayo;
    sreq.P = 2;
    sreq.waves = kWaves;
    sreq.B = kServeMaxBatch;
    const model::StageRange r = heaviest(sm, schedule::stages_for(sreq));
    model::StageModule st(sm.layer_descs(), r.begin, r.end, seed, sm.init_std);
    st.set_kv_capacity(sm.seq);
    const tensor::Tensor prompt = stage_input(sm, r, 32);
    const tensor::Tensor context = stage_input(sm, r, 47);
    const tensor::Tensor token = stage_input(sm, r, 1);
    for (int s = 0; s < 30; ++s) {
      int id = tr.begin("model::StageModule::decode[prefill 32]");
      sink += st.decode(prompt, 0, 0)[0];
      tr.end(id);
      st.drop_slot(0);
      st.decode(context, 0, 0);
      id = tr.begin("model::StageModule::decode[token @48]");
      sink += st.decode(token, 47, 0)[0];
      tr.end(id);
      st.drop_slot(0);
    }
  }

  // comm: one stage-boundary activation between two threads (ping-pong,
  // half a round trip), and the all-reduce of one stage's gradients.
  {
    comm::World w(2);
    constexpr int kSpans = 15, kReps = 100;
    std::thread echo([&] {
      comm::Communicator c(&w, 1);
      for (int i = 0; i < kSpans * kReps; ++i) c.send(0, 2, c.recv(0, 1));
    });
    comm::Communicator c(&w, 0);
    tensor::Tensor payload = rng.randn({1, p2p_tokens, m.hidden});
    probe(tr, "comm::Communicator::send+recv[round trip]", kSpans, kReps, [&] {
      c.send(1, 1, std::move(payload));
      payload = c.recv(1, 2);
    });
    echo.join();
  }
  {
    const model::StageRange r = heaviest(m, stages);
    const auto descs = m.layer_descs();
    int64_t params = 0;
    for (int i = r.begin; i < r.end; ++i) {
      params += descs[static_cast<size_t>(i)].param_count();
    }
    comm::World w(2);
    const comm::Group g{{0, 1}};
    constexpr int kSpans = 15, kReps = 10;
    std::thread peer([&] {
      comm::Communicator c(&w, 1);
      tensor::Tensor t({params});
      for (int i = 0; i < kSpans * kReps; ++i) comm::allreduce_sum(c, g, t, i % 2);
    });
    comm::Communicator c(&w, 0);
    tensor::Tensor t({params});
    int phase = 0;
    probe(tr, "comm::allreduce_sum[2 ranks]", kSpans, kReps,
          [&] { comm::allreduce_sum(c, g, t, phase++ % 2); });
    peer.join();
  }

  // schedule: compiling the workload's program, and its size.
  {
    schedule::Schedule sched;
    probe(tr, "schedule::make_schedule", 10, 20, [&] {
      sched = forward_only ? schedule::make_forward_schedule(req)
                           : schedule::make_schedule(req);
    });
    int64_t actions = 0;
    for (const auto& d : sched.scripts) actions += static_cast<int64_t>(d.actions.size());
    j.key("schedule_actions").integer(actions);
    j.key("schedule_p2p_sends")
        .integer(sched.count(schedule::Op::SendAct) +
                 sched.count(schedule::Op::SendGrad));
  }
  j.key("probe_sink").num(sink);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.traced = v == "1";
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    Json j;
    j.open('{');
    j.key("workload").str(a.workload);
    j.key("seed").integer(static_cast<int64_t>(a.seed));
    j.key("traced").boolean(a.traced);
    if (a.workload == "train_wave") {
      run_train({4, 1}, a.seed, a.seconds, a.traced, j);
    } else if (a.workload == "train_hybrid") {
      run_train({2, 2}, a.seed, a.seconds, a.traced, j);
    } else if (a.workload == "serve_chat") {
      run_serve(a.seed, a.seconds, a.traced, j);
    } else {
      throw std::invalid_argument("unknown workload '" + a.workload + "'");
    }
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wavebench: %s\n", e.what());
    return 1;
  }
}

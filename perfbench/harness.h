// Shared harness of the repository benchmark (perfbench/run.py builds and
// runs it). A workload builds its inputs from the seed in Setup(), then runs
// one batch of fixed work per Pass(); Drive() times both from outside,
// repeats the pass for the requested number of host seconds, checks that
// every simulated value repeats bitwise, and prints a human-readable report
// followed by one `RESULT {json}` line of metrics.
//
// Untraced runs (--trace 0) report the end-to-end metrics. A traced run
// (--trace 1) runs one untraced pass and one traced pass: the traced pass
// records host spans around every call the workload makes into a layer
// (kept in memory, written at exit) and reports the per-layer metrics, the
// tracing overhead, and whether its simulated values equal the untraced
// pass's.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// splitmix64: derives independent sub-seeds from the workload seed.
uint64_t Mix(uint64_t x);

double Median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p);
double Geomean(const std::vector<double>& v);

// Host-time spans recorded around layer calls. Spans nest by scope: a span
// opened while another is open becomes its child. Not thread-safe; every
// span is opened on the benchmark's main thread.
class Spans {
 public:
  struct Span {
    std::string layer;  // module the call enters: runtime, kernels, ...
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;  // index into spans(), -1 for a root
    int64_t op = -1;  // operation / request / step id
  };

  // RAII scope; a null recorder makes it a no-op.
  class Scope {
   public:
    Scope(Spans* spans, std::string layer, std::string name, int64_t op = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }
  // Seconds per layer of span time not covered by the span's children.
  std::map<std::string, double> SelfSeconds() const;
  // Sum of the durations of spans with this layer and name.
  double TotalSeconds(const std::string& layer, const std::string& name) const;
  // Chrome-trace JSON of every span (host microseconds).
  bool Save(const std::string& path) const;

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

// What one pass produced.
struct PassResult {
  // Simulated (deterministic) values: compared bitwise across the passes
  // of a run and between the untraced and the traced pass.
  std::map<std::string, double> sim;
  // Per-layer values measured during this pass (host times, counters).
  std::map<std::string, double> layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Host seconds of each step of the pass (an operation, a model, a
  // serving run), in a fixed order. wall_s sums each step's median over the
  // passes of a run, so interference from other work on the machine only
  // skews the steps it overlaps.
  std::vector<double> step_s;
};

struct Options {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 4;
  std::string out_dir;  // where a traced run writes its spans
  double p99_limit_ms = 0;
  std::vector<double> rates;  // serve-mixed offered-rate ladder, req/s
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds every input from opts.seed. Timed, with a small warm-up
  // simulation, as setup_s; must be repeatable (each call rebuilds the
  // same inputs).
  virtual void Setup() = 0;
  // One batch of the workload's fixed work. `spans` is null when untraced.
  virtual PassResult Pass(Spans* spans) = 0;
  // Output checks beyond the per-pass ones; prints what it checks and
  // returns false on any failure. Runs after timing.
  virtual bool Check(const PassResult& first) = 0;
  // Prints the paper-fidelity lines for the simulated ratios it reports.
  virtual void PrintFidelity(const PassResult& first) = 0;
  // Passes an untraced run times at the least.
  virtual int MinPasses() const { return 2; }
};

// Every per-layer metric a traced run reports, with its unit. A metric of
// a layer the workload does not exercise reads 0.
std::vector<std::pair<std::string, std::string>> PerLayerMetrics(
    const Options& opts);
// "2.5" for 2.5 req/s: the rate's component in per-layer metric names.
std::string RateName(double rate);
// The Figure-11 models tune-fig11 runs.
const std::vector<std::string>& TuneModels();

std::unique_ptr<Workload> MakeFabric(const Options& opts);
std::unique_ptr<Workload> MakeTune(const Options& opts);
std::unique_ptr<Workload> MakeServe(const Options& opts);

// Runs set-up, the timed passes (or the traced pair) and the checks, and
// prints the report and the RESULT line. Returns the process exit code.
int Drive(Workload& w, const std::string& name, const Options& opts);

}  // namespace perfbench

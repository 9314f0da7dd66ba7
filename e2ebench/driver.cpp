// End-to-end benchmark driver for the DVAFS pipeline.
//
//   e2e_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--setup-samples-ms <ms,ms,...>]
//   e2e_driver --workload <name> --seed <n> --setup-only 1
//
// Every workload is a closed loop with one client in a single-threaded
// process: every `threads` knob of the library is pinned to 1. The loop
// runs whole rounds of identical operations until --seconds have passed;
// each operation's outputs are checked outside its timed region against a
// computation made apart from the measured path (the naive reference
// forward, the scalar gate simulator, an exhaustive plan search) or
// against a property the method must have. A failed check fails its
// operation.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same loop
// and re-times each layer by calling its public function on the inputs
// the operations used: serving stages after every served clip, admission
// and gate-level stages once after the loop. Layers a workload does not
// pass through are re-timed on a fixed companion input (README.md lists
// which). The last line of standard output is one JSON object.
//
// Set-up (everything from process start to the first timed operation,
// once-per-process caches included) runs once per process. --setup-only 1
// stops after it and prints `setup_ms <value>`; run.py runs such processes
// first and passes their times back through --setup-samples-ms, so that
// setup_s is the median of several cold set-ups.
//
// The private disk cache lives under $DVAFS_CACHE_DIR, which must be set
// to an empty directory this process may own (run.py does this).

#include "analysis/plan_verifier.h"
#include "core/dvafs.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

using namespace dvafs;
namespace fs = std::filesystem;

namespace {

using clock_type = std::chrono::steady_clock;

const clock_type::time_point process_start = clock_type::now();

double ms_since(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
        .count();
}

// -- results ------------------------------------------------------------------

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct run_report {
    double setup_ms = 0.0; // this process's own set-up
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

std::string json_number(double v)
{
    if (!std::isfinite(v)) {
        throw std::runtime_error("non-finite metric value");
    }
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

void print_result(const run_report& rep)
{
    std::ostringstream os;
    os << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const metric& m = rep.metrics[i];
        os << (i == 0 ? "" : ", ") << "\"" << m.name
           << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
           << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

double median(std::vector<double> v)
{
    if (v.empty()) {
        throw std::runtime_error("median of no samples");
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

double peak_rss_mib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// -- checks -------------------------------------------------------------------

class check_failure : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what)
{
    if (!ok) {
        throw check_failure(what);
    }
}

// Per-layer samples of the traced run, reported as their mean.
class trace_stats {
public:
    void add(const std::string& name, double v)
    {
        acc& a = acc_[name];
        a.sum += v;
        ++a.count;
    }
    double mean(const std::string& name) const
    {
        const auto it = acc_.find(name);
        if (it == acc_.end()) {
            throw std::runtime_error("no trace samples for " + name);
        }
        return it->second.sum / static_cast<double>(it->second.count);
    }

private:
    struct acc {
        double sum = 0.0;
        std::size_t count = 0;
    };
    std::map<std::string, acc> acc_;
};

// Records every (kind, key) the disk store touches, so the traced run can
// re-time load/store on exactly the entries the workload used. Never
// injects a fault.
class key_recorder final : public disk_fault_hook {
public:
    disk_fault on_disk_op(disk_op, const std::string& kind,
                          const std::string& key) override
    {
        const std::lock_guard<std::mutex> lock(mu_);
        keys_.emplace(kind, key);
        return disk_fault::none;
    }
    std::set<std::pair<std::string, std::string>> keys() const
    {
        const std::lock_guard<std::mutex> lock(mu_);
        return keys_;
    }

private:
    mutable std::mutex mu_;
    std::set<std::pair<std::string, std::string>> keys_;
};

// -- the closed loop ----------------------------------------------------------

// Runs whole rounds of `round` operations until `seconds` have passed, so
// every run attempts each operation of the round equally often.
void run_loop(run_report& rep, double seconds, std::size_t round,
              const std::function<void(std::size_t op, std::size_t slot)>& op)
{
    const auto t0 = clock_type::now();
    std::size_t n = 0;
    do {
        for (std::size_t slot = 0; slot < round; ++slot, ++n) {
            ++rep.attempted;
            try {
                op(n, slot);
            } catch (const std::exception& e) {
                ++rep.failed;
                if (rep.failed <= 5) {
                    std::cerr << "op " << n << " failed: " << e.what()
                              << "\n";
                }
            }
        }
    } while (ms_since(t0) < seconds * 1e3);
}

// -- shared configuration -----------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// The governor every workload admits with: a 12-image teacher sweep up to
// 10 bits, single-threaded throughout.
governor_config bench_governor_config()
{
    governor_config g;
    g.sweep.images = 12;
    g.sweep.max_bits = 10;
    g.sweep.threads = 1;
    g.frontier.threads = 1;
    return g;
}

// The adaptive governor's frontier-search planner configuration (see
// runtime/adaptive_governor.cpp), rebuilt here to re-time layer_frontiers.
planner_config governor_search_config(const governor_config& g)
{
    planner_config pc;
    pc.policy = plan_policy::frontier_search;
    pc.accuracy_budget = 1.0;
    pc.budget_resolution = g.budget_resolution;
    pc.time_pareto = true;
    pc.frontier = g.frontier;
    return pc;
}

// Drift escalation and the overload valve are out of scope (README.md):
// a noise-free stream under a margin of 1 never escalates, and every ladder
// plan fits its frame period many times over, so the valve never sheds.
stream_config bench_stream_config()
{
    stream_config s;
    s.threads = 1;
    s.drift_margin = 1.0;
    return s;
}

void set_cache_dir(const std::string& dir)
{
    fs::create_directories(dir);
    ::setenv("DVAFS_CACHE_DIR", dir.c_str(), 1);
}

std::string cache_root()
{
    const char* d = std::getenv("DVAFS_CACHE_DIR");
    if (d == nullptr || *d == '\0') {
        throw std::runtime_error("DVAFS_CACHE_DIR must name the run's "
                                 "private cache directory");
    }
    return d;
}

// -- plan checks ----------------------------------------------------------------

const network_plan& plan_for_version(const stream_result& res,
                                     const network_plan& fallback,
                                     int version)
{
    if (version == 0) {
        return fallback;
    }
    for (const replan_event& ev : res.replans) {
        if (ev.plan_version == version) {
            return ev.plan;
        }
    }
    throw check_failure("frame served by unknown plan version "
                        + std::to_string(version));
}

// Minimal energy over *every* selection of one point per layer frontier
// that meets the budgets discretized exactly as the planner's DP does
// (losses at `resolution`, times at latency / 256, both rounded up).
// Returns false when no selection meets them.
bool exhaustive_min_energy(const std::vector<layer_frontier>& frontiers,
                           double accuracy_budget, double latency_ms,
                           double resolution, double& best)
{
    const int b_total =
        static_cast<int>(std::floor(accuracy_budget / resolution + 1e-9));
    const double tres = latency_ms / 256.0;
    const int t_total = static_cast<int>(std::floor(latency_ms / tres + 1e-9));
    const auto loss_units = [&](double loss) {
        return std::max(0,
                        static_cast<int>(std::ceil(loss / resolution - 1e-9)));
    };
    const auto time_units = [&](double ms) {
        return std::max(0, static_cast<int>(std::ceil(ms / tres - 1e-9)));
    };
    bool found = false;
    best = 0.0;
    const std::function<void(std::size_t, int, int, double)> walk =
        [&](std::size_t li, int b, int t, double e) {
            if (li == frontiers.size()) {
                if (!found || e < best) {
                    best = e;
                    found = true;
                }
                return;
            }
            for (const layer_frontier_point& p : frontiers[li].points) {
                const int nb = b + loss_units(p.accuracy_loss);
                const int nt = t + time_units(p.time_ms);
                if (nb <= b_total && nt <= t_total) {
                    walk(li + 1, nb, nt, e + p.energy_mj);
                }
            }
        };
    walk(0, 0, 0, 0.0);
    return found;
}

// The startup plan must select, per layer, frontier points whose summed
// energy equals the exhaustive optimum at the same discretized budgets.
void check_plan_exhaustive(const network_plan& plan,
                           const std::vector<layer_frontier>& frontiers,
                           const scenario_phase& ph, double resolution)
{
    require(plan.layers.size() == frontiers.size(),
            "plan/frontier layer count");
    double best = 0.0;
    const bool feasible =
        exhaustive_min_energy(frontiers, ph.accuracy_budget,
                              1000.0 / ph.target_fps, resolution, best);
    require(feasible == plan.deadline_met,
            "exhaustive search disagrees on feasibility");
    if (!feasible) {
        return;
    }
    double picked = 0.0;
    for (std::size_t k = 0; k < frontiers.size(); ++k) {
        const layer_plan& lp = plan.layers[k];
        const layer_frontier_point* match = nullptr;
        for (const layer_frontier_point& p : frontiers[k].points) {
            if (p.spec == lp.point && p.accuracy_loss == lp.accuracy_loss
                && p.activity_divisor == lp.activity_divisor) {
                match = &p;
                break;
            }
        }
        require(match != nullptr, "plan point missing from layer frontier "
                                      + frontiers[k].layer_name);
        picked += match->energy_mj;
    }
    require(picked == best, "plan energy " + json_number(picked)
                                + " mJ is not the exhaustive optimum "
                                + json_number(best) + " mJ");
}

// Joint accuracy at the requirement overlay and the teacher labels,
// recomputed through the naive reference loops.
void check_reference_accuracy(const network& net,
                              const adaptive_governor::network_state& st)
{
    const std::vector<layer_quant> overlay =
        requirements_overlay(net, st.reqs);
    const std::vector<layer_quant> float_overlay(net.depth());
    std::size_t hits = 0;
    for (std::size_t i = 0; i < st.data.inputs.size(); ++i) {
        const tensor& x = st.data.inputs[i];
        require(argmax(net.reference_forward(x, float_overlay))
                    == st.data.labels[i],
                net.name() + ": teacher label differs from reference");
        hits += argmax(net.reference_forward(x, overlay))
                == st.data.labels[i];
    }
    const double acc = static_cast<double>(hits)
                       / static_cast<double>(st.data.inputs.size());
    require(acc == st.reference_accuracy,
            net.name() + ": joint accuracy " + json_number(acc)
                + " differs from the governor's "
                + json_number(st.reference_accuracy));
}

bool same_mode(const envision_mode& a, const envision_mode& b)
{
    return a.mode == b.mode && a.weight_bits == b.weight_bits
           && a.input_bits == b.input_bits && a.f_mhz == b.f_mhz
           && a.vdd == b.vdd && a.weight_sparsity == b.weight_sparsity
           && a.input_sparsity == b.input_sparsity;
}

// Field-for-field equality of two admissions of the same network.
void check_same_state(const adaptive_governor::network_state& a,
                      const adaptive_governor::network_state& b,
                      const std::string& what)
{
    require(a.depth == b.depth && a.total_macs == b.total_macs
                && a.weight_digest == b.weight_digest,
            what + ": fingerprint");
    require(a.data.labels == b.data.labels
                && a.data.inputs.size() == b.data.inputs.size(),
            what + ": teacher labels");
    for (std::size_t i = 0; i < a.data.inputs.size(); ++i) {
        const auto x = a.data.inputs[i].flat();
        const auto y = b.data.inputs[i].flat();
        require(std::equal(x.begin(), x.end(), y.begin(), y.end()),
                what + ": teacher input " + std::to_string(i));
    }
    require(a.reqs.size() == b.reqs.size(), what + ": requirement count");
    for (std::size_t i = 0; i < a.reqs.size(); ++i) {
        const layer_quant_requirement& p = a.reqs[i];
        const layer_quant_requirement& q = b.reqs[i];
        require(p.layer_name == q.layer_name
                    && p.layer_index == q.layer_index
                    && p.min_weight_bits == q.min_weight_bits
                    && p.min_input_bits == q.min_input_bits,
                what + ": requirement " + p.layer_name);
    }
    require(a.sparsity.size() == b.sparsity.size(), what + ": sparsity");
    for (std::size_t i = 0; i < a.sparsity.size(); ++i) {
        require(a.sparsity[i].layer_name == b.sparsity[i].layer_name
                    && a.sparsity[i].weight_sparsity
                           == b.sparsity[i].weight_sparsity
                    && a.sparsity[i].input_sparsity
                           == b.sparsity[i].input_sparsity,
                what + ": sparsity " + a.sparsity[i].layer_name);
    }
    require(a.frontiers.size() == b.frontiers.size(), what + ": frontiers");
    for (std::size_t i = 0; i < a.frontiers.size(); ++i) {
        const layer_frontier& f = a.frontiers[i];
        const layer_frontier& g = b.frontiers[i];
        require(f.layer_name == g.layer_name
                    && f.layer_index == g.layer_index
                    && f.required_bits == g.required_bits
                    && f.points.size() == g.points.size(),
                what + ": frontier " + f.layer_name);
        for (std::size_t k = 0; k < f.points.size(); ++k) {
            const layer_frontier_point& p = f.points[k];
            const layer_frontier_point& q = g.points[k];
            require(p.mode_point == q.mode_point && p.spec == q.spec
                        && p.activity_divisor == q.activity_divisor
                        && same_mode(p.mode, q.mode)
                        && p.energy_mj == q.energy_mj
                        && p.time_ms == q.time_ms
                        && p.accuracy_loss == q.accuracy_loss,
                    what + ": frontier point " + f.layer_name + "#"
                        + std::to_string(k));
        }
    }
    require(a.reference_accuracy == b.reference_accuracy,
            what + ": reference accuracy");
    require(a.fallback.total_energy_mj == b.fallback.total_energy_mj
                && a.fallback.total_time_ms == b.fallback.total_time_ms
                && a.fallback.layers.size() == b.fallback.layers.size(),
            what + ": boot plan");
}

// -- serving --------------------------------------------------------------------

// A noise-free ladder of accuracy budgets on one network: every phase
// boundary re-plans, so every clip does the same planning and frame work.
scenario make_ladder(network net, int frames_per_phase)
{
    scenario sc;
    sc.name = "ladder";
    sc.networks.push_back(std::move(net));
    const double budgets[] = {0.0, 0.02, 0.05, 0.10};
    for (std::size_t i = 0; i < std::size(budgets); ++i) {
        scenario_phase ph;
        ph.name = "rung" + std::to_string(i);
        ph.network = 0;
        ph.frames = frames_per_phase;
        ph.target_fps = 30.0;
        ph.accuracy_budget = budgets[i];
        ph.input_noise = 0.0;
        sc.phases.push_back(ph);
    }
    return sc;
}

struct served_clip {
    stream_result res;
    double wall_ms = 0.0;
};

// Plays one clip: the timed operation of the serve workloads.
served_clip play_clip(stream_engine& engine, scenario& sc,
                      std::uint64_t stream_seed)
{
    sc.stream_seed = stream_seed;
    served_clip c;
    const auto t0 = clock_type::now();
    c.res = engine.run(sc);
    c.wall_ms = ms_since(t0);
    return c;
}

// Checks a played clip. `check_frames` frames, spread over the clip and
// rotated by `rotation`, are recomputed through the naive reference loops;
// 0 skips that part.
void check_clip(stream_engine& engine, const scenario& sc,
                const served_clip& c, std::size_t check_frames,
                std::size_t rotation)
{
    const stream_result& res = c.res;
    const network& net = sc.networks[0];
    require(res.stats.frames_dropped == 0, "dropped frames");
    require(res.stats.frames_served == sc.total_frames()
                && res.frames.size() == sc.total_frames(),
            "served frame count");
    require(res.stats.replans == static_cast<int>(sc.phases.size())
                && res.replans.size() == sc.phases.size()
                && res.stats.escalations == 0
                && res.stats.shed_events == 0,
            "the clip re-planned other than once per rung");
    double frame_pj = 0.0;
    for (const frame_result& fr : res.frames) {
        frame_pj += fr.energy_mj * 1e9;
    }
    require(std::fabs(res.ledger.total_pj() - frame_pj) <= 1e-9 * frame_pj,
            "ledger total differs from the sum of frame energies");

    const network_plan& fallback = engine.governor().prepare(net).fallback;
    const std::vector<layer_quant> float_overlay(net.depth());
    for (std::size_t k = 0; k < check_frames; ++k) {
        const std::size_t i =
            ((k + rotation) * res.frames.size() / check_frames
             + rotation)
            % res.frames.size();
        const frame_result& fr = res.frames[i];
        const network_plan& plan =
            plan_for_version(res, fallback, fr.plan_version);
        const tensor x = make_stream_frame(net, sc.phases[fr.phase],
                                           sc.stream_seed, fr.frame);
        require(argmax(net.reference_forward(x, plan_overlay(net, plan)))
                    == fr.predicted,
                "frame " + std::to_string(fr.frame)
                    + ": prediction differs from the reference forward");
        require(argmax(net.reference_forward(x, float_overlay))
                    == fr.teacher,
                "frame " + std::to_string(fr.frame)
                    + ": teacher differs from the reference forward");
    }
}

// Re-times the serving stages of one clip on its own inputs; the residual
// is the clip's wall time the re-timed stages do not account for.
void trace_serving(stream_engine& engine, const scenario& sc,
                   const served_clip& c, trace_stats& tr)
{
    const network& net = sc.networks[0];
    const stream_result& res = c.res;
    adaptive_governor& gov = engine.governor();
    const adaptive_governor::network_state& st = gov.prepare(net);
    const std::vector<layer_quant> float_overlay(net.depth());

    // Frame generation and the batched scheduler, in the engine's batches
    // (at most max_in_flight frames of one plan and phase).
    double gen_ms = 0.0;
    double batch_ms = 0.0;
    double conv_ms = 0.0;
    double fc_ms = 0.0;
    const stream_scheduler sched(engine.config().threads);
    const std::size_t max_batch = static_cast<std::size_t>(
        std::max(1, engine.config().max_in_flight));
    std::vector<frame_result> out;
    energy_ledger ledger;
    for (std::size_t i = 0; i < res.frames.size();) {
        std::size_t j = i;
        std::vector<tensor> frames;
        while (j < res.frames.size() && j - i < max_batch
               && res.frames[j].plan_version == res.frames[i].plan_version
               && res.frames[j].phase == res.frames[i].phase) {
            const auto t0 = clock_type::now();
            frames.push_back(make_stream_frame(
                net, sc.phases[res.frames[j].phase], sc.stream_seed,
                res.frames[j].frame));
            gen_ms += ms_since(t0);
            ++j;
        }
        const frame_result& first = res.frames[i];
        const network_plan& plan =
            plan_for_version(res, st.fallback, first.plan_version);
        const auto t0 = clock_type::now();
        sched.run_batch(net, plan, frames, first.frame, first.phase,
                        first.plan_version,
                        1000.0 / sc.phases[first.phase].target_fps, 1.0, out,
                        ledger);
        batch_ms += ms_since(t0);

        // The forward passes run_batch makes per frame (quantized and
        // float teacher), whole and layer by layer.
        const std::vector<layer_quant> overlay = plan_overlay(net, plan);
        for (const tensor& x : frames) {
            const auto tf = clock_type::now();
            argmax(net.forward(x, overlay));
            argmax(net.forward(x, float_overlay));
            tr.add("cnn.forward_ms", ms_since(tf));
            double conv = 0.0;
            double fc = 0.0;
            double other = 0.0;
            for (const std::vector<layer_quant>* ov :
                 {&overlay, &float_overlay}) {
                tensor a = x;
                for (std::size_t li = 0; li < net.depth(); ++li) {
                    const layer& l = net.at(li);
                    const auto tl = clock_type::now();
                    tensor b = l.forward(a, (*ov)[li]);
                    const double ms = ms_since(tl);
                    if (dynamic_cast<const conv_layer*>(&l) != nullptr) {
                        conv += ms;
                    } else if (dynamic_cast<const fc_layer*>(&l)
                               != nullptr) {
                        fc += ms;
                    } else {
                        other += ms;
                    }
                    a = std::move(b);
                }
            }
            tr.add("cnn.conv_ms", conv);
            tr.add("cnn.fc_ms", fc);
            tr.add("cnn.other_ms", other);
            conv_ms += conv;
            fc_ms += fc;
        }
        i = j;
    }
    const double n = static_cast<double>(res.frames.size());
    tr.add("runtime.frame_gen_us", gen_ms * 1e3 / n);
    tr.add("runtime.run_batch_ms", batch_ms / n);

    // MACs per frame by kind (both forwards), for the GMAC/s figures.
    std::uint64_t conv_macs = 0;
    std::uint64_t fc_macs = 0;
    tensor_shape shape = net.input_shape();
    for (std::size_t li = 0; li < net.depth(); ++li) {
        const layer& l = net.at(li);
        if (dynamic_cast<const conv_layer*>(&l) != nullptr) {
            conv_macs += 2 * l.macs(shape);
        } else if (dynamic_cast<const fc_layer*>(&l) != nullptr) {
            fc_macs += 2 * l.macs(shape);
        }
        shape = l.out_shape(shape);
    }
    tr.add("cnn.macs_per_frame", static_cast<double>(conv_macs + fc_macs));
    tr.add("cnn.conv_gmac_s",
           static_cast<double>(conv_macs) * n / (conv_ms * 1e6));
    tr.add("cnn.fc_gmac_s", static_cast<double>(fc_macs) * n / (fc_ms * 1e6));

    // One re-plan, DP and plan verification per rung.
    double plan_ms = 0.0;
    for (std::size_t pi = 0; pi < sc.phases.size(); ++pi) {
        const scenario_phase& ph = sc.phases[pi];
        const auto t0 = clock_type::now();
        const replan_event ev = gov.replan(
            net, ph,
            pi == 0 ? replan_reason::startup : replan_reason::phase_change,
            res.replans[pi].frame);
        const double replan_ms = ms_since(t0);
        const auto t1 = clock_type::now();
        select_frontier_points_budgeted(st.frontiers, ph.accuracy_budget,
                                        1000.0 / ph.target_fps,
                                        gov.config().budget_resolution);
        tr.add("core.dp_us", ms_since(t1) * 1e3);
        const auto t2 = clock_type::now();
        const lint_report rep = verify_plan(net, ev.plan, &st.frontiers);
        const double verify_ms = ms_since(t2);
        require(rep.ok(), "re-timed plan fails verification");
        tr.add("runtime.replan_us", replan_ms * 1e3);
        tr.add("analysis.verify_plan_us", verify_ms * 1e3);
        plan_ms += replan_ms + verify_ms;
    }
    tr.add("runtime.residual_ms", c.wall_ms - gen_ms - batch_ms - plan_ms);
}

// -- admission ------------------------------------------------------------------

struct admission {
    double wall_ms = 0.0;
    replan_event startup;
};

// Submits a scenario to `gov`: prepare every network, the startup re-plan
// and its verification -- the time until the scenario has a verified
// first plan.
admission admit(adaptive_governor& gov, const scenario& sc)
{
    admission a;
    const auto t0 = clock_type::now();
    for (const network& net : sc.networks) {
        gov.prepare(net);
    }
    const network& first = sc.networks[sc.phases[0].network];
    a.startup = gov.replan(first, sc.phases[0], replan_reason::startup, 0);
    const lint_report rep = verify_plan(first, a.startup.plan,
                                        &gov.prepare(first).frontiers);
    a.wall_ms = ms_since(t0);
    require(rep.ok(), "startup plan fails verification");
    return a;
}

// Re-times the admission stages of `net` on the governor's inputs;
// prepare runs against the disk cache in `prepare_dir` (cold when it is
// empty).
void trace_admission(const network& net, const envision_model& model,
                     const governor_config& g, const std::string& prepare_dir,
                     trace_stats& tr)
{
    auto t0 = clock_type::now();
    const teacher_dataset data = make_teacher_dataset(net, g.sweep);
    tr.add("cnn.teacher_dataset_ms", ms_since(t0));

    const batch_evaluator eval(net, data, g.sweep.threads);
    t0 = clock_type::now();
    std::vector<layer_quant_requirement> reqs = eval.sweep(g.sweep);
    tr.add("cnn.sweep_ms", ms_since(t0));
    t0 = clock_type::now();
    reqs = eval.refine(std::move(reqs), g.sweep);
    tr.add("cnn.refine_ms", ms_since(t0));

    const std::vector<layer_sparsity> sparsity = eval.sparsity();
    const precision_planner planner(model, governor_search_config(g));
    t0 = clock_type::now();
    planner.layer_frontiers(net, reqs, sparsity, &data);
    tr.add("core.layer_frontiers_ms", ms_since(t0));

    set_cache_dir(prepare_dir);
    adaptive_governor gov(model, g);
    t0 = clock_type::now();
    gov.prepare(net);
    tr.add("runtime.prepare_ms", ms_since(t0));
}

// -- gate level -------------------------------------------------------------------

struct gate_design {
    std::string name;
    std::unique_ptr<structural_multiplier> mult;
    bool exact = false;
};

std::vector<gate_design> make_designs()
{
    std::vector<gate_design> d;
    d.push_back({"array", std::make_unique<array_multiplier>(16), true});
    d.push_back({"wallace", std::make_unique<wallace_multiplier>(16), true});
    d.push_back({"booth-wallace",
                 std::make_unique<booth_wallace_multiplier>(16), true});
    auto dv = std::make_unique<dvafs_multiplier>(16);
    dv->set_mode(sw_mode::w1x16);
    dv->set_das_precision(16);
    d.push_back({"dvafs-1x16@16b", std::move(dv), true});
    auto tr = std::make_unique<truncated_multiplier>(16);
    tr->set_truncation(8);
    d.push_back({"truncated-t8", std::move(tr), false});
    d.push_back({"kulkarni", std::make_unique<kulkarni_multiplier>(16),
                 false});
    d.push_back({"etm", std::make_unique<etm_multiplier>(16), false});
    d.push_back({"per-r16", std::make_unique<per_multiplier>(16, 16),
                 false});
    for (gate_design& g : d) {
        g.mult->set_batch_threads(1);
    }
    return d;
}

void draw_operands(const structural_multiplier& m, std::uint64_t seed,
                   std::size_t n, std::vector<std::int64_t>& a,
                   std::vector<std::int64_t>& b)
{
    pcg32 rng(seed);
    const int w = m.width();
    a.resize(n);
    b.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (m.is_signed()) {
            a[i] = sign_extend(rng.next_u64(), w);
            b[i] = sign_extend(rng.next_u64(), w);
        } else {
            a[i] = static_cast<std::int64_t>(rng.next_u64() & low_mask(w));
            b[i] = static_cast<std::int64_t>(rng.next_u64() & low_mask(w));
        }
    }
}

// The gate-level operation of the characterize workload.
struct gate_op_config {
    std::uint64_t sweep_vectors = 8192;  // per sweep point
    std::size_t batch_vectors = 4096;    // per design, simulate_batch
    std::uint64_t error_samples = 4096;  // per design, error analysis
    std::size_t prefix = 48;             // scalar-oracle toggle prefix
};

struct gate_op_result {
    double wall_ms = 0.0;
    std::uint64_t vectors = 0;
    double sweep_ms = 0.0;
    double batch_ms = 0.0;
    double error_ms = 0.0;
    std::uint64_t sweep_vectors = 0;
    std::uint64_t batch_vectors = 0;
    std::uint64_t error_vectors = 0;
    double dvafs_pj_per_word = 0.0;
    // What the checks read: per design operands, products, switched
    // capacitance and error reports, plus the sweep.
    std::vector<std::vector<std::int64_t>> as;
    std::vector<std::vector<std::int64_t>> bs;
    std::vector<std::vector<std::int64_t>> outs;
    std::vector<double> cap_ff;
    std::vector<error_report> errs;
    sweep_report sweep;
};

gate_op_result gate_op(std::vector<gate_design>& designs,
                       const gate_op_config& cfg, std::uint64_t seed)
{
    const tech_model& tech = tech_40nm_lp();
    const dvafs_multiplier& shared = *netlist_cache::global().dvafs(16);
    const std::vector<operating_point_spec> grid =
        make_sweep_grid(sweep_grid_config{});

    // Operand streams are drawn before the timed region.
    gate_op_result r;
    r.as.resize(designs.size());
    r.bs.resize(designs.size());
    for (std::size_t d = 0; d < designs.size(); ++d) {
        draw_operands(*designs[d].mult, mix_seed(seed, d), cfg.batch_vectors,
                      r.as[d], r.bs[d]);
    }
    r.outs.assign(designs.size(),
                  std::vector<std::int64_t>(cfg.batch_vectors));
    r.cap_ff.resize(designs.size());
    r.errs.resize(designs.size());

    const auto t0 = clock_type::now();
    sim_engine_config ec;
    ec.threads = 1;
    ec.vectors = cfg.sweep_vectors;
    ec.seed = seed;
    r.sweep = sim_engine(ec).run(shared, tech, grid);
    r.sweep_ms = ms_since(t0);
    for (std::size_t d = 0; d < designs.size(); ++d) {
        structural_multiplier& m = *designs[d].mult;
        const auto tb = clock_type::now();
        m.reset_stats();
        m.simulate_batch(r.as[d].data(), r.bs[d].data(), cfg.batch_vectors,
                         r.outs[d].data());
        r.cap_ff[d] = m.mean_switched_cap_ff(tech);
        r.batch_ms += ms_since(tb);
        const auto te = clock_type::now();
        r.errs[d] = analyze_gate_level_error(m, cfg.error_samples,
                                           mix_seed(seed, 100 + d));
        r.error_ms += ms_since(te);
    }
    r.wall_ms = ms_since(t0);
    r.sweep_vectors = cfg.sweep_vectors * grid.size();
    r.batch_vectors = cfg.batch_vectors * designs.size();
    r.error_vectors = cfg.error_samples * designs.size();
    r.vectors = r.sweep_vectors + r.batch_vectors + r.error_vectors;
    const sim_point_result* ref = r.sweep.find(sw_mode::w1x16, 16);
    require(ref != nullptr, "sweep lacks the 1x16@16b point");
    r.dvafs_pj_per_word = ref->energy_pj_per_word();
    return r;
}

// Checks one gate-level operation's outputs.
void check_gate_op(std::vector<gate_design>& designs,
                   const gate_op_config& cfg, const gate_op_result& r)
{
    const auto& as = r.as;
    const auto& bs = r.bs;
    for (std::size_t d = 0; d < designs.size(); ++d) {
        const gate_design& g = designs[d];
        structural_multiplier& m = *g.mult;
        require(r.cap_ff[d] > 0.0, g.name + ": no switching activity");
        if (g.exact) {
            for (std::size_t i = 0; i < cfg.batch_vectors; ++i) {
                require(r.outs[d][i] == as[d][i] * bs[d][i],
                        g.name + ": inexact product");
            }
            require(r.errs[d].max_abs_error == 0.0 && r.errs[d].rmse == 0.0,
                    g.name + ": error analysis reports error");
        } else {
            require(r.errs[d].rmse > 0.0,
                    g.name + ": approximate design reports no error");
        }
        // Toggle counts on a stream prefix against the scalar logic_sim
        // oracle, both engines starting from the same vector.
        const std::size_t last = cfg.batch_vectors - 1;
        m.simulate_batch(&as[d][last], &bs[d][last], 1);
        m.simulate(as[d][last], bs[d][last]);
        m.reset_stats();
        std::vector<std::int64_t> scalar_out(cfg.prefix);
        for (std::size_t i = 0; i < cfg.prefix; ++i) {
            scalar_out[i] = m.simulate(as[d][i], bs[d][i]);
        }
        const std::uint64_t scalar_toggles = m.total_toggles();
        m.reset_stats();
        std::vector<std::int64_t> batch_out(cfg.prefix);
        m.simulate_batch(as[d].data(), bs[d].data(), cfg.prefix,
                         batch_out.data());
        require(m.total_toggles() == scalar_toggles && scalar_toggles > 0,
                g.name + ": toggles differ from the scalar oracle");
        require(scalar_out == batch_out,
                g.name + ": products differ from the scalar oracle");
    }
    // Fig. 2 ordering: per-word energy rises with precision in 1x16, and
    // the subword modes undercut 1x16 at equal precision.
    const auto pj = [&r](sw_mode m, int keep) {
        const sim_point_result* p = r.sweep.find(m, keep);
        require(p != nullptr, "sweep point missing");
        return p->energy_pj_per_word();
    };
    require(pj(sw_mode::w1x16, 4) < pj(sw_mode::w1x16, 8)
                && pj(sw_mode::w1x16, 8) < pj(sw_mode::w1x16, 12)
                && pj(sw_mode::w1x16, 12) < pj(sw_mode::w1x16, 16),
            "1x16 energy does not rise with precision");
    require(pj(sw_mode::w2x8, 8) < pj(sw_mode::w1x16, 8),
            "2x8@8b does not undercut 1x16@8b");
    require(pj(sw_mode::w4x4, 4) < pj(sw_mode::w1x16, 4),
            "4x4@4b does not undercut 1x16@4b");
}

// Re-times the gate-level stages: the sweep over `grid` at `vectors` per
// point, schedule compilation per grid point, the mode-frontier
// measurement and the batched/error-analysis paths of the DVAFS multiplier.
void trace_gate(const governor_config& g, const envision_model& model,
                std::uint64_t vectors, std::uint64_t seed,
                std::size_t mult_vectors, trace_stats& tr)
{
    const tech_model& tech = tech_40nm_lp();
    const dvafs_multiplier& shared = *netlist_cache::global().dvafs(16);
    const std::vector<operating_point_spec> grid =
        make_sweep_grid(sweep_grid_config{});

    sim_engine_config ec;
    ec.threads = 1;
    ec.vectors = vectors;
    ec.seed = seed;
    auto t0 = clock_type::now();
    sim_engine(ec).run(shared, tech, grid);
    const double sweep_ms = ms_since(t0);
    tr.add("sim.point_ms", sweep_ms / static_cast<double>(grid.size()));
    tr.add("sim.sweep_vectors_per_s",
           static_cast<double>(vectors * grid.size()) / (sweep_ms * 1e-3));

    for (const operating_point_spec& p : grid) {
        const auto ties = shared.tied_inputs(p.mode,
                                             p.mode == sw_mode::w1x16
                                                 ? p.keep_bits
                                                 : 0);
        t0 = clock_type::now();
        compile_netlist(shared.net(), ties);
        tr.add("circuit.compile_ms", ms_since(t0));
    }

    t0 = clock_type::now();
    measure_mode_frontier(g.frontier, tech_28nm_fdsoi(), model.calibration());
    tr.add("core.frontier_ms", ms_since(t0));

    dvafs_multiplier m(16);
    m.set_batch_threads(1);
    std::vector<std::int64_t> a;
    std::vector<std::int64_t> b;
    draw_operands(m, seed, mult_vectors, a, b);
    t0 = clock_type::now();
    m.simulate_batch(a.data(), b.data(), mult_vectors);
    tr.add("mult.batch_vectors_per_s",
           static_cast<double>(mult_vectors) / (ms_since(t0) * 1e-3));
    t0 = clock_type::now();
    analyze_gate_level_error(m, mult_vectors, seed);
    tr.add("mult.error_vectors_per_s",
           static_cast<double>(mult_vectors) / (ms_since(t0) * 1e-3));
}

// Re-times disk_store load and store on every entry the run touched that
// exists in `dir` (stores rewrite the loaded payload under its own key).
void trace_disk(const key_recorder& rec, const std::string& dir,
                trace_stats& tr)
{
    const disk_store store(dir);
    for (const auto& [kind, key] : rec.keys()) {
        if (!fs::exists(store.path_for(kind, key))) {
            continue;
        }
        auto t0 = clock_type::now();
        const auto blob = store.load(kind, key);
        tr.add("util.disk_load_us", ms_since(t0) * 1e3);
        if (blob) {
            t0 = clock_type::now();
            store.store(kind, key, *blob);
            tr.add("util.disk_store_us", ms_since(t0) * 1e3);
        }
    }
}

// -- workloads --------------------------------------------------------------------

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    std::vector<double> setup_samples_ms; // of earlier set-up-only processes
};

struct cache_counters {
    disk_store_stats disk;
    frontier_cache::cache_stats frontier;

    static cache_counters now()
    {
        return {disk_store::stats(), frontier_cache::global().stats()};
    }
};

// Per-op averages of the program's own cache counters over the loop.
void report_counters(const cache_counters& before, const run_report& rep,
                     trace_stats& tr)
{
    const cache_counters after = cache_counters::now();
    const double n = static_cast<double>(std::max<std::uint64_t>(
        1, rep.attempted));
    tr.add("cache.disk.loads",
           static_cast<double>(after.disk.loads - before.disk.loads) / n);
    tr.add("cache.disk.hits",
           static_cast<double>(after.disk.hits - before.disk.hits) / n);
    tr.add("cache.frontier.hits",
           static_cast<double>(after.frontier.hits - before.frontier.hits)
               / n);
    tr.add("cache.frontier.measured",
           static_cast<double>(after.frontier.measured
                               - before.frontier.measured)
               / n);
}

const std::vector<std::pair<std::string, std::string>> per_layer_units = {
    {"runtime.run_batch_ms", "ms"},
    {"runtime.frame_gen_us", "us"},
    {"runtime.residual_ms", "ms"},
    {"runtime.replan_us", "us"},
    {"core.dp_us", "us"},
    {"analysis.verify_plan_us", "us"},
    {"runtime.prepare_ms", "ms"},
    {"circuit.compile_ms", "ms"},
    {"cnn.forward_ms", "ms"},
    {"cnn.conv_ms", "ms"},
    {"cnn.fc_ms", "ms"},
    {"cnn.other_ms", "ms"},
    {"cnn.conv_gmac_s", "GMAC/s"},
    {"cnn.fc_gmac_s", "GMAC/s"},
    {"cnn.macs_per_frame", "count"},
    {"cnn.teacher_dataset_ms", "ms"},
    {"cnn.sweep_ms", "ms"},
    {"cnn.refine_ms", "ms"},
    {"core.layer_frontiers_ms", "ms"},
    {"core.frontier_ms", "ms"},
    {"util.disk_load_us", "us"},
    {"util.disk_store_us", "us"},
    {"cache.disk.loads", "count"},
    {"cache.disk.hits", "count"},
    {"cache.frontier.hits", "count"},
    {"cache.frontier.measured", "count"},
    {"sim.sweep_vectors_per_s", "1/s"},
    {"sim.point_ms", "ms"},
    {"mult.batch_vectors_per_s", "1/s"},
    {"mult.error_vectors_per_s", "1/s"},
};

void report_trace(const trace_stats& tr, run_report& rep)
{
    for (const auto& [name, unit] : per_layer_units) {
        rep.add(name, tr.mean(name), unit);
    }
}

// The operation count and median wall time, printed in both modes so a
// traced run can be compared with an untraced one.
void print_ops(const std::vector<double>& op_ms)
{
    std::cout << "ops " << op_ms.size() << ", op p50 " << median(op_ms)
              << " ms\n";
}

// setup_s is the median of this process's set-up and the earlier set-up-only
// processes' ones.
void report_end_to_end(run_report& rep, const options& opt, double items,
                       double busy_ms, const std::vector<double>& op_ms,
                       double energy_uj)
{
    if (op_ms.empty() || busy_ms <= 0.0) {
        throw std::runtime_error("no operation succeeded");
    }
    std::vector<double> setups = opt.setup_samples_ms;
    setups.push_back(rep.setup_ms);
    rep.add("setup_s", median(std::move(setups)) * 1e-3, "s");
    rep.add("throughput_per_s", items / (busy_ms * 1e-3), "1/s");
    rep.add("op_ms_p50", median(op_ms), "ms");
    rep.add("modeled_uj_per_item", energy_uj, "uJ");
    rep.add("peak_rss_mb", peak_rss_mib(), "MiB");
}

// The serving ladder the companion trace and serve-lenet share.
constexpr int lenet_frames_per_phase = 16;

struct serve_spec {
    network (*build)(const zoo_options&);
    std::uint64_t zoo_seed;
    int frames_per_phase;
    std::size_t check_frames;     // reference-checked frames per checked clip
    std::size_t check_every;      // check every n-th clip
};

// A served ladder: the network, its engine and the warm-up clip.
struct serving {
    scenario sc;
    std::unique_ptr<stream_engine> engine;
    served_clip warmup;
};

// Network build, cold admission and one warm-up clip.
void start_serving(serving& s, const serve_spec& spec,
                   const envision_model& model, std::uint64_t seed)
{
    s.sc = make_ladder(spec.build({.seed = spec.zoo_seed}),
                       spec.frames_per_phase);
    s.engine = std::make_unique<stream_engine>(model, bench_governor_config(),
                                               bench_stream_config());
    s.engine->governor().prepare(s.sc.networks[0]);
    s.warmup = play_clip(*s.engine, s.sc, mix_seed(seed, 0));
}

// Serving stages re-timed on clips of the companion LeNet-5 ladder, for
// workloads whose own operations serve no frames.
constexpr std::uint64_t companion_clips = 8;

void trace_companion_serving(const envision_model& model, std::uint64_t seed,
                             trace_stats& tr)
{
    serving s;
    start_serving(s, {make_lenet5, 2017, lenet_frames_per_phase, 2, 1},
                  model, seed);
    for (std::uint64_t n = 1; n <= companion_clips; ++n) {
        const served_clip c = play_clip(*s.engine, s.sc, mix_seed(seed, n));
        check_clip(*s.engine, s.sc, c, 2, n);
        trace_serving(*s.engine, s.sc, c, tr);
    }
}

void run_serve(const options& opt, const serve_spec& spec, run_report& rep,
               const key_recorder& rec)
{
    const envision_model model;
    const governor_config g = bench_governor_config();
    const std::string root = cache_root();
    const std::string dir = root + "/setup";
    set_cache_dir(dir);
    serving s;
    start_serving(s, spec, model, opt.seed);
    rep.setup_ms = ms_since(process_start);
    if (opt.setup_only) {
        return;
    }
    check_clip(*s.engine, s.sc, s.warmup, spec.check_frames, 0);

    std::vector<double> clip_ms;
    double busy_ms = 0.0;
    double frames = 0.0;
    double energy_pj = 0.0;
    trace_stats tr;
    const cache_counters before = cache_counters::now();
    run_loop(rep, opt.seconds, 1, [&](std::size_t n, std::size_t) {
        const served_clip c =
            play_clip(*s.engine, s.sc, mix_seed(opt.seed, n + 1));
        check_clip(*s.engine, s.sc, c,
                   n % spec.check_every == 0 ? spec.check_frames : 0,
                   n / spec.check_every);
        clip_ms.push_back(c.wall_ms);
        busy_ms += c.wall_ms;
        frames += static_cast<double>(c.res.frames.size());
        energy_pj += c.res.ledger.total_pj();
        if (opt.trace) {
            trace_serving(*s.engine, s.sc, c, tr);
        }
    });

    std::cout << "clips " << clip_ms.size() << ", frames " << frames
              << ", clip p10 " << percentile(clip_ms, 0.1) << " ms";
    if (clip_ms.size() >= 100) {
        std::cout << ", clip p90 " << percentile(clip_ms, 0.9) << " ms";
    }
    std::cout << "\n";
    print_ops(clip_ms);
    if (!opt.trace) {
        report_end_to_end(rep, opt, frames, busy_ms, clip_ms,
                          energy_pj * 1e-6 / frames);
        return;
    }
    report_counters(before, rep, tr);
    trace_admission(s.sc.networks[0], model, g, root + "/trace-prepare", tr);
    trace_gate(g, model, g.frontier.vectors, g.frontier.seed, 4096, tr);
    trace_disk(rec, dir, tr);
    report_trace(tr, rep);
}

// LeNet-5 detector / AlexNet-scaled recognizer zoo seeds, admitted in
// whole rounds; the workload seed only rotates the order.
const std::vector<std::pair<std::uint64_t, std::uint64_t>> admit_pairs = {
    {10, 10},
    {12, 5},
    {11, 3},
};

scenario make_pair_scenario(std::size_t pair, std::uint64_t seed)
{
    scenario sc = make_cascade_scenario(
        make_lenet5({.seed = admit_pairs[pair].first}),
        make_alexnet_scaled({.seed = admit_pairs[pair].second}), 8, 8);
    sc.stream_seed = seed;
    return sc;
}

// One scenario admitted into a fresh governor.
struct admitted {
    std::unique_ptr<adaptive_governor> gov;
    admission a;
};

admitted admit_fresh(const envision_model& model, const scenario& sc)
{
    admitted r;
    r.gov = std::make_unique<adaptive_governor>(model,
                                                bench_governor_config());
    r.a = admit(*r.gov, sc);
    return r;
}

// The detector's startup plan against the exhaustive search; with
// `reference`, every network's teacher labels and joint accuracy against
// the naive reference loops too.
void check_admitted(admitted& r, const scenario& sc, bool reference)
{
    const network& det = sc.networks[sc.phases[0].network];
    check_plan_exhaustive(r.a.startup.plan, r.gov->prepare(det).frontiers,
                          sc.phases[0], r.gov->config().budget_resolution);
    if (reference) {
        for (const network& net : sc.networks) {
            check_reference_accuracy(net, r.gov->prepare(net));
        }
    }
}

void run_admit(const options& opt, bool warm, run_report& rep,
               const key_recorder& rec)
{
    const envision_model model;
    const governor_config g = bench_governor_config();
    const std::string root = cache_root();
    const std::size_t rotation = opt.seed % admit_pairs.size();
    const auto pair_of = [&](std::size_t slot) {
        return (slot + rotation) % admit_pairs.size();
    };

    // Set-up warms the process -- the gate-level frontier and the compiled
    // schedules stay in memory, as in a long-running server. admit-cold
    // admits one fixed pair; admit-warm admits every pair cold into the
    // store its loop then admits them warm from.
    std::string dir = root + "/setup";
    set_cache_dir(dir);
    std::vector<admitted> kept;
    std::vector<scenario> kept_sc;
    for (std::size_t p = 0; p < (warm ? admit_pairs.size() : 1); ++p) {
        kept_sc.push_back(make_pair_scenario(p, opt.seed));
        kept.push_back(admit_fresh(model, kept_sc.back()));
    }
    rep.setup_ms = ms_since(process_start);
    if (opt.setup_only) {
        return;
    }
    for (std::size_t p = 0; p < kept.size(); ++p) {
        check_admitted(kept[p], kept_sc[p], true);
    }

    std::vector<double> op_ms;
    double busy_ms = 0.0;
    double energy_uj = 0.0;
    std::size_t last_pair = 0;
    std::vector<std::vector<double>> pair_ms(admit_pairs.size());
    const cache_counters before = cache_counters::now();
    run_loop(rep, opt.seconds, admit_pairs.size(),
             [&](std::size_t n, std::size_t slot) {
        const std::size_t p = pair_of(slot);
        const scenario sc = make_pair_scenario(p, mix_seed(opt.seed, n));
        const std::string op_dir = root + "/cold-" + std::to_string(n);
        if (!warm) {
            set_cache_dir(op_dir);
        }
        const disk_store_stats d0 = disk_store::stats();
        admitted r = admit_fresh(model, sc);
        const disk_store_stats d1 = disk_store::stats();
        if (warm) {
            require(d1.hits - d0.hits == sc.networks.size()
                        && d1.loads - d0.loads == sc.networks.size(),
                    "warm admission missed the disk cache");
            check_admitted(r, sc, false);
            for (std::size_t k = 0; k < sc.networks.size(); ++k) {
                check_same_state(
                    r.gov->prepare(sc.networks[k]),
                    kept[p].gov->prepare(kept_sc[p].networks[k]),
                    sc.networks[k].name());
            }
        } else {
            require(d1.hits == d0.hits, "cold admission hit the disk cache");
            check_admitted(r, sc, true);
            fs::remove_all(op_dir);
        }
        op_ms.push_back(r.a.wall_ms);
        pair_ms[p].push_back(r.a.wall_ms);
        busy_ms += r.a.wall_ms;
        energy_uj += r.a.startup.plan.total_energy_mj * 1e3;
        last_pair = p;
    });

    std::cout << "admissions " << op_ms.size() << " ("
              << (warm ? "warm" : "cold") << "), median ms per pair:";
    for (const std::vector<double>& v : pair_ms) {
        std::cout << " " << median(v);
    }
    std::cout << "\n";
    print_ops(op_ms);
    if (!opt.trace) {
        report_end_to_end(rep, opt, static_cast<double>(op_ms.size()),
                          busy_ms, op_ms,
                          energy_uj / static_cast<double>(op_ms.size()));
        return;
    }
    trace_stats tr;
    report_counters(before, rep, tr);
    const scenario sc = make_pair_scenario(last_pair, opt.seed);
    if (!warm) {
        // The store entries one cold admission leaves, for trace_disk.
        dir = root + "/trace-disk";
        set_cache_dir(dir);
        admit_fresh(model, sc);
    }
    for (const network& net : sc.networks) {
        trace_admission(net, model, g,
                        warm ? dir : root + "/trace-prepare-" + net.name(),
                        tr);
    }
    trace_disk(rec, dir, tr);
    trace_companion_serving(model, opt.seed, tr);
    trace_gate(g, model, g.frontier.vectors, g.frontier.seed, 4096, tr);
    report_trace(tr, rep);
}

void run_characterize(const options& opt, run_report& rep,
                      const key_recorder& rec)
{
    const gate_op_config cfg;
    std::vector<gate_design> designs = make_designs();
    const gate_op_result warmup = gate_op(designs, cfg, mix_seed(opt.seed, 0));
    rep.setup_ms = ms_since(process_start);
    if (opt.setup_only) {
        return;
    }
    check_gate_op(designs, cfg, warmup);

    std::vector<double> op_ms;
    double busy_ms = 0.0;
    double vectors = 0.0;
    double pj = 0.0;
    gate_op_result last;
    const cache_counters before = cache_counters::now();
    run_loop(rep, opt.seconds, 1, [&](std::size_t n, std::size_t) {
        gate_op_result r = gate_op(designs, cfg, mix_seed(opt.seed, n + 1));
        check_gate_op(designs, cfg, r);
        op_ms.push_back(r.wall_ms);
        busy_ms += r.wall_ms;
        vectors += static_cast<double>(r.vectors);
        pj += r.dvafs_pj_per_word;
        last = std::move(r);
    });
    std::cout << "gate ops " << op_ms.size() << ", sweep "
              << last.sweep_vectors / (last.sweep_ms * 1e-3)
              << " vectors/s, batch "
              << last.batch_vectors / (last.batch_ms * 1e-3)
              << " vectors/s, error "
              << last.error_vectors / (last.error_ms * 1e-3)
              << " vectors/s\n";
    print_ops(op_ms);
    if (!opt.trace) {
        report_end_to_end(rep, opt, vectors, busy_ms, op_ms,
                          pj * 1e-6 / static_cast<double>(op_ms.size()));
        return;
    }
    trace_stats tr;
    report_counters(before, rep, tr);
    const envision_model model;
    const governor_config g = bench_governor_config();
    trace_gate(g, model, cfg.sweep_vectors, mix_seed(opt.seed, 1),
               cfg.batch_vectors, tr);
    // Planning and serving stages are off this workload's path: re-timed
    // on the companion LeNet-5 network and ladder.
    const std::string root = cache_root();
    set_cache_dir(root + "/companion");
    trace_companion_serving(model, opt.seed, tr);
    trace_admission(make_lenet5({.seed = 2017}), model, g,
                    root + "/trace-prepare", tr);
    trace_disk(rec, root + "/companion", tr);
    report_trace(tr, rep);
}

options parse_options(int argc, char** argv)
{
    options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + arg);
        }
        const std::string val = argv[++i];
        if (arg == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::stoull(val);
        } else if (arg == "--seconds") {
            o.seconds = std::stod(val);
        } else if (arg == "--trace") {
            if (val != "0" && val != "1") {
                throw std::invalid_argument("--trace takes 0 or 1");
            }
            o.trace = val == "1";
        } else if (arg == "--setup-only") {
            o.setup_only = val == "1";
        } else if (arg == "--setup-samples-ms") {
            std::istringstream is(val);
            std::string item;
            while (std::getline(is, item, ',')) {
                o.setup_samples_ms.push_back(std::stod(item));
            }
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (!have_workload || !(o.seconds > 0.0)) {
        throw std::invalid_argument("need --workload and --seconds > 0");
    }
    return o;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        const options opt = parse_options(argc, argv);
        key_recorder rec;
        const scoped_disk_fault_hook hook(&rec);
        run_report rep;
        if (opt.workload == "serve-lenet") {
            run_serve(opt, {make_lenet5, 2017, lenet_frames_per_phase, 2, 1},
                      rep, rec);
        } else if (opt.workload == "serve-vgg") {
            run_serve(opt, {make_vgg16_scaled, 102, 4, 1, 4}, rep, rec);
        } else if (opt.workload == "admit-cold") {
            run_admit(opt, false, rep, rec);
        } else if (opt.workload == "admit-warm") {
            run_admit(opt, true, rep, rec);
        } else if (opt.workload == "characterize") {
            run_characterize(opt, rep, rec);
        } else {
            throw std::invalid_argument("unknown workload " + opt.workload);
        }
        if (opt.setup_only) {
            std::cout << "setup_ms " << json_number(rep.setup_ms) << "\n";
            return 0;
        }
        std::cout << "isa " << vec::isa_name(vec::active_isa()) << "\n";
        std::cout << "workload " << opt.workload << ": attempted "
                  << rep.attempted << ", failed " << rep.failed << "\n";
        for (const metric& m : rep.metrics) {
            std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                      << "\n";
        }
        print_result(rep);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "e2e_driver: " << e.what() << "\n";
        return 1;
    }
}

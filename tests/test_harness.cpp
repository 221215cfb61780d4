/**
 * @file
 * Tests of the parallel experiment harness and the unified RunReport
 * API: thread-count invariance (jobs=1 vs jobs=N byte-identical),
 * submission-order results, RunReport aggregation semantics, the
 * run_experiment entry point, and the fluent SystemConfig
 * setters.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment_runner.h"
#include "metrics/stutter_model.h"
#include "sim/logging.h"
#include "workload/app_profiles.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::time_literals;

namespace {

Scenario
steady(Time duration = 500_ms, Time ui = 1_ms, Time render = 4_ms)
{
    Scenario sc("steady");
    sc.animate(duration, std::make_shared<ConstantCostModel>(ui, render));
    return sc;
}

/** A mixed VSync/D-VSync sweep with heavy tails and varied seeds. */
std::vector<Experiment>
mixed_sweep()
{
    ProfileSpec spec;
    spec.name = "mixed";
    spec.heavy_per_sec = 4.0;
    spec.heavy_min_periods = 1.2;
    spec.heavy_max_periods = 4.0;
    spec.heavy_alpha = 1.3;

    std::vector<Experiment> points;
    int i = 0;
    for (RenderMode mode : {RenderMode::kVsync, RenderMode::kDvsync}) {
        for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
            for (int buffers : {3, 5}) {
                auto cost = make_cost_model(spec, 60.0, seed);
                Experiment point;
                point.scenario = make_swipe_scenario(
                    "sweep", 6, 500_ms, cost, 0.7);
                point.config = SystemConfig()
                                   .with_mode(mode)
                                   .with_buffers(buffers)
                                   .with_seed(seed);
                point.label = "point-" + std::to_string(i++);
                points.push_back(std::move(point));
            }
        }
    }
    return points;
}

} // namespace

TEST(ExperimentRunner, JobsOneEqualsJobsFourByteIdentical)
{
    const std::vector<Experiment> points = mixed_sweep();
    const std::vector<RunReport> seq = ExperimentRunner(1).run(points);
    const std::vector<RunReport> par = ExperimentRunner(4).run(points);

    ASSERT_EQ(seq.size(), points.size());
    ASSERT_EQ(par.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(seq[i], par[i]) << "point " << i;
        EXPECT_EQ(seq[i].debug_string(), par[i].debug_string())
            << "point " << i;
    }
}

TEST(ExperimentRunner, ResultsInSubmissionOrder)
{
    const std::vector<Experiment> points = mixed_sweep();
    const std::vector<RunReport> reports =
        ExperimentRunner(4).run(points);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(reports[i].label, points[i].label);
}

TEST(ExperimentRunner, MoreJobsThanPointsIsFine)
{
    std::vector<Experiment> points(2);
    points[0].scenario = steady();
    points[1].scenario = steady();
    points[1].config.mode = RenderMode::kDvsync;
    const std::vector<RunReport> reports =
        ExperimentRunner(16).run(points);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].config.mode, "VSync");
    EXPECT_EQ(reports[1].config.mode, "D-VSync");
}

TEST(ExperimentRunner, EmptyBatch)
{
    EXPECT_TRUE(ExperimentRunner(4).run({}).empty());
}

TEST(ExperimentRunner, RunOneMatchesBatch)
{
    Experiment point;
    point.scenario = steady();
    point.label = "solo";
    const RunReport one = ExperimentRunner(1).run_one(point);
    const std::vector<RunReport> batch = ExperimentRunner(2).run({point});
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(one, batch[0]);
    EXPECT_EQ(one.label, "solo");
}

TEST(ExperimentRunner, DefaultJobsPrefersFlagThenEnv)
{
    EXPECT_EQ(default_jobs(3), 3);
    // jobs <= 0 resolves to at least one worker.
    EXPECT_GE(ExperimentRunner(0).jobs(), 1);
    EXPECT_GE(ExperimentRunner(-5).jobs(), 1);
}

TEST(ExperimentRunner, BadSweepPointFailsItsSlotNotTheBatch)
{
    // buffers=1 is below the architectural minimum: the RenderSystem
    // constructor fatal()s. Under the runner that becomes a ConfigError
    // recorded in the point's slot; the other points still run.
    std::vector<Experiment> points(3);
    points[0].scenario = steady();
    points[0].label = "good-0";
    points[1].scenario = steady();
    points[1].config.buffers = 1;
    points[1].label = "bad";
    points[2].scenario = steady();
    points[2].config.mode = RenderMode::kDvsync;
    points[2].label = "good-2";

    for (int jobs : {1, 3}) {
        const std::vector<RunReport> reports =
            ExperimentRunner(jobs).run(points);
        ASSERT_EQ(reports.size(), 3u);
        EXPECT_TRUE(reports[0].error.empty()) << reports[0].error;
        EXPECT_GT(reports[0].presents, 0u);
        EXPECT_EQ(reports[1].label, "bad");
        EXPECT_EQ(reports[1].scenario, "steady");
        EXPECT_NE(reports[1].error.find("at least 2 slots"),
                  std::string::npos)
            << reports[1].error;
        EXPECT_EQ(reports[1].presents, 0u);
        EXPECT_TRUE(reports[2].error.empty()) << reports[2].error;
        EXPECT_GT(reports[2].presents, 0u);
    }
    // The batch scope restored exit-on-fatal for everyone else.
    EXPECT_FALSE(fatal_throws());
}

TEST(StreamingRunner, RunStreamMatchesBatchAndDeliversInOrder)
{
    const std::vector<Experiment> points = mixed_sweep();
    const std::vector<RunReport> batch = ExperimentRunner(1).run(points);

    for (int jobs : {1, 4}) {
        std::vector<std::size_t> order;
        std::vector<RunReport> streamed;
        CallbackSink sink([&](std::size_t index, RunReport &&r) {
            order.push_back(index);
            streamed.push_back(std::move(r));
        });
        ExperimentRunner(jobs).run_stream(points, sink);

        ASSERT_EQ(streamed.size(), points.size()) << "jobs " << jobs;
        for (std::size_t i = 0; i < points.size(); ++i) {
            // Strictly increasing indices: exactly once, in order.
            EXPECT_EQ(order[i], i) << "jobs " << jobs;
            EXPECT_EQ(streamed[i], batch[i])
                << "jobs " << jobs << " point " << i;
        }
    }
}

TEST(StreamingRunner, GeneratorSourceMatchesMaterializedPoints)
{
    const std::vector<Experiment> points = mixed_sweep();
    VectorSink from_vector;
    ExperimentRunner(3).run_stream(points, from_vector);

    VectorSink from_source;
    ExperimentRunner(3).run_stream(
        points.size(), [&](std::size_t i) { return points[i]; },
        from_source);

    EXPECT_EQ(from_vector.take(), from_source.take());
}

TEST(StreamingRunner, VectorSinkMatchesRunReturnValue)
{
    const std::vector<Experiment> points = mixed_sweep();
    VectorSink sink;
    ExperimentRunner(2).run_stream(points, sink);
    EXPECT_EQ(sink.take(), ExperimentRunner(2).run(points));
}

TEST(StreamingRunner, TaskSpecErrorSlotCarriesSubmissionLabel)
{
    // A task that dies before it could label its own report: the spec's
    // label and scenario must still identify the error slot, exactly as
    // run() does for Experiment points.
    std::vector<ExperimentRunner::TaskSpec> tasks(2);
    tasks[0].label = "ok";
    tasks[0].scenario = "steady";
    tasks[0].run = [] { return run_experiment({}, steady()); };
    tasks[1].label = "doomed";
    tasks[1].scenario = "imaginary";
    tasks[1].run = []() -> RunReport {
        fatal("boom before labeling");
    };

    for (int jobs : {1, 2}) {
        VectorSink sink;
        ExperimentRunner(jobs).run_tasks_stream(tasks, sink);
        const std::vector<RunReport> reports = sink.take();
        ASSERT_EQ(reports.size(), 2u);
        EXPECT_TRUE(reports[0].error.empty()) << reports[0].error;
        EXPECT_EQ(reports[0].label, "ok");
        EXPECT_EQ(reports[1].label, "doomed");
        EXPECT_EQ(reports[1].scenario, "imaginary");
        EXPECT_NE(reports[1].error.find("boom"), std::string::npos)
            << reports[1].error;
    }
    EXPECT_FALSE(fatal_throws());
}

TEST(StreamingRunner, StreamRetainsNothingBetweenDeliveries)
{
    // The sink owns each report exclusively; the runner must not hold
    // copies. Observable contract: moving the report out is safe and
    // each index arrives exactly once even at high parallelism.
    std::vector<Experiment> points(16);
    for (std::size_t i = 0; i < points.size(); ++i) {
        points[i].scenario = steady();
        points[i].label = std::string("p").append(std::to_string(i));
    }
    std::vector<std::string> labels;
    CallbackSink sink([&](std::size_t, RunReport &&r) {
        const RunReport local = std::move(r);
        labels.push_back(local.label);
    });
    ExperimentRunner(8).run_stream(points, sink);
    ASSERT_EQ(labels.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(labels[i], points[i].label);
}

TEST(RunReport, MatchesFrameStatsOfTheRun)
{
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, steady(1_s));
    const RunReport r = sys.run();

    const FrameStats &s = sys.stats();
    EXPECT_EQ(r.fdps, s.fdps());
    EXPECT_EQ(r.fd_percent, s.frame_drop_percent());
    EXPECT_EQ(r.fps, s.fps());
    EXPECT_EQ(r.drops, s.frame_drops());
    EXPECT_EQ(r.frames_due, s.frames_due());
    EXPECT_EQ(r.presents, s.presents());
    EXPECT_EQ(r.direct, s.direct_composition());
    EXPECT_EQ(r.stuffed, s.buffer_stuffing());
    EXPECT_EQ(r.latency_mean_ms, to_ms(Time(s.latency().mean())));
    EXPECT_EQ(r.latency_p95_ms, to_ms(Time(s.latency().percentile(95))));
    EXPECT_EQ(r.latency_max_ms, to_ms(Time(s.latency().max())));
    EXPECT_EQ(r.stutters, count_stutters(s));

    const RunActivity act = sys.activity();
    EXPECT_EQ(r.activity, act);
    EXPECT_EQ(r.energy_mj, PowerModel().energy_mj(act));

    // Effective config is resolved, not echoed.
    EXPECT_EQ(r.config.mode, "D-VSync");
    EXPECT_EQ(r.config.device, cfg.device.name);
    EXPECT_EQ(r.config.buffers, sys.buffers());
    EXPECT_EQ(r.config.prerender_limit, sys.prerender_limit());
    EXPECT_EQ(r.scenario, "steady");

    // report() reproduces the same value after the fact.
    EXPECT_EQ(sys.report(), r);
}

TEST(RunReport, AveragedAveragesRatesAndSumsCounts)
{
    RunReport a;
    a.label = "cell";
    a.fdps = 2.0;
    a.fd_percent = 10.0;
    a.latency_mean_ms = 30.0;
    a.drops = 5;
    a.presents = 100;
    a.stutters = 3;
    a.energy_mj = 100.0;
    a.activity.wall_time = 1'000;
    RunReport b = a;
    b.fdps = 4.0;
    b.fd_percent = 20.0;
    b.latency_mean_ms = 50.0;
    b.drops = 7;
    b.presents = 200;
    b.stutters = 1;
    b.energy_mj = 200.0;

    const RunReport avg = RunReport::averaged({a, b});
    EXPECT_EQ(avg.label, "cell");
    EXPECT_DOUBLE_EQ(avg.fdps, 3.0);
    EXPECT_DOUBLE_EQ(avg.fd_percent, 15.0);
    EXPECT_DOUBLE_EQ(avg.latency_mean_ms, 40.0);
    EXPECT_DOUBLE_EQ(avg.energy_mj, 150.0);
    EXPECT_EQ(avg.drops, 12u);
    EXPECT_EQ(avg.presents, 300u);
    EXPECT_EQ(avg.stutters, 4u);
    EXPECT_EQ(avg.activity.wall_time, 2'000);
    EXPECT_EQ(avg.repeats, 2);
}

TEST(RunReport, AveragedIdentityOnSingletonAndEmpty)
{
    RunReport a;
    a.fdps = 1.5;
    a.drops = 2;
    EXPECT_EQ(RunReport::averaged({a}), a);
    EXPECT_EQ(RunReport::averaged({}), RunReport{});
}

TEST(RunExperiment, OneCallEqualsManualRun)
{
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    cfg.seed = 11;

    RenderSystem sys(cfg, steady());
    const RunReport manual = sys.run();
    const RunReport oneshot = run_experiment(cfg, steady());
    EXPECT_EQ(manual, oneshot);
}

TEST(RunExperiment, FdpsIsDeterministicAcrossRuns)
{
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{1_ms, 4_ms}, FrameCost{1_ms, 30_ms}, 10, 5);
    Scenario sc("spiky");
    sc.animate(1_s, cost);
    SystemConfig cfg;
    EXPECT_EQ(run_experiment(cfg, sc).fdps, run_experiment(cfg, sc).fdps);
}

TEST(SystemConfig, FluentSettersMatchMutation)
{
    SystemConfig mutated;
    mutated.device = mate60_pro();
    mutated.mode = RenderMode::kDvsync;
    mutated.buffers = 6;
    mutated.prerender_limit = 3;
    mutated.seed = 99;
    mutated.vsync_jitter = 300_us;
    mutated.dtv_calibration_interval = 4;
    mutated.latch_lead = 2_ms;

    const SystemConfig fluent =
        SystemConfig()
            .with_device(mate60_pro())
            .with_mode(RenderMode::kDvsync)
            .with_buffers(6)
            .with_prerender_limit(3)
            .with_seed(99)
            .with_vsync_jitter(300_us)
            .with_dtv_calibration_interval(4)
            .with_latch_lead(2_ms);

    // Equivalence is observable: both configurations produce identical
    // reports on the same scenario.
    EXPECT_EQ(run_experiment(mutated, steady()),
              run_experiment(fluent, steady()));
}

namespace {

/** Sink that records deliveries and throws once it has seen enough. */
class ThrowingSink final : public ReportSink
{
  public:
    explicit ThrowingSink(std::size_t throw_at) : throw_at_(throw_at) {}

    void consume(std::size_t index, RunReport &&report) override
    {
        delivered.push_back(index);
        labels.push_back(report.label);
        if (index == throw_at_)
            throw std::runtime_error("sink full");
    }

    std::vector<std::size_t> delivered;
    std::vector<std::string> labels;

  private:
    const std::size_t throw_at_;
};

} // namespace

TEST(StreamingRunner, ThrowingSinkAbortsStreamWithoutDeadlock)
{
    // A consume() that throws mid-stream must neither unwind a worker
    // thread (std::terminate) nor wedge the claim-side backpressure
    // window: workers drain, the exception reaches the caller, and the
    // delivered prefix is exactly [0, throw_at] — each index once, in
    // order, nothing after the throw.
    constexpr std::size_t kTasks = 64;
    constexpr std::size_t kThrowAt = 3;
    const auto source = [](std::size_t i) {
        ExperimentRunner::TaskSpec spec;
        spec.label = "t" + std::to_string(i);
        spec.run = [i] {
            RunReport r;
            r.label = "t" + std::to_string(i);
            return r;
        };
        return spec;
    };

    for (int jobs : {1, 4}) {
        ThrowingSink sink(kThrowAt);
        EXPECT_THROW(ExperimentRunner(jobs).run_tasks_stream(kTasks, source,
                                                             sink),
                     std::runtime_error)
            << "jobs=" << jobs;
        // The throwing index counts as delivered (the sink saw it); no
        // re-delivery, no later indices.
        ASSERT_EQ(sink.delivered.size(), kThrowAt + 1) << "jobs=" << jobs;
        for (std::size_t i = 0; i <= kThrowAt; ++i) {
            EXPECT_EQ(sink.delivered[i], i);
            EXPECT_EQ(sink.labels[i],
                      std::string("t").append(std::to_string(i)));
        }
    }
}

TEST(ExperimentRunner, MalformedDvsJobsIsAConfigError)
{
    // std::atoi silently turned DVS_JOBS=abc into 0 (all cores) and let
    // negatives through; a typo must fail the run instead of quietly
    // changing its parallelism.
    FatalThrowsScope recoverable(true);
    ::setenv("DVS_JOBS", "abc", 1);
    EXPECT_THROW(default_jobs(), ConfigError);
    ::setenv("DVS_JOBS", "4x", 1);
    EXPECT_THROW(default_jobs(), ConfigError);
    ::setenv("DVS_JOBS", "-2", 1);
    EXPECT_THROW(default_jobs(), ConfigError);
    ::setenv("DVS_JOBS", "", 1);
    EXPECT_THROW(default_jobs(), ConfigError);
    ::setenv("DVS_JOBS", "6", 1);
    EXPECT_EQ(default_jobs(), 6);
    // An explicit flag wins over the environment; negative flags are
    // configuration errors too.
    EXPECT_EQ(default_jobs(3), 3);
    EXPECT_THROW(default_jobs(-1), ConfigError);
    ::unsetenv("DVS_JOBS");
    EXPECT_EQ(default_jobs(), 0);
}

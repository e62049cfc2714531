#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "data/synthetic.h"

namespace perfbench {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The paper's headline setting: NY-Taxi shape and Table III defaults
// (R=20, W=10, T=3600, θ=20, SNS+RND), one stream on one shard, an anomaly
// sink per event. Exercises θ-sampling and prev-model evaluation; skips the
// journal, cross-shard scheduling and queries.
WorkloadSpec HotTaxiRnd() {
  WorkloadSpec spec;
  spec.name = "hot-taxi-rnd";
  spec.preset = sns::NewYorkTaxiPreset();
  spec.engine = spec.preset.engine;
  spec.shards = 1;
  spec.anomaly_sink = true;
  spec.tuples_per_span = 2500;  // The preset's density.
  spec.open_rate = 800.0;
  spec.max_capacity = 16000.0;
  return spec;
}

// The multi-tenant service path: eight journaled Chicago-Crime streams on
// two shards, checkpoints at a fixed cadence, and a query client riding the
// same mailboxes. No θ-sampling.
WorkloadSpec FleetCrimeVec() {
  WorkloadSpec spec;
  spec.name = "fleet-crime-vec";
  spec.num_streams = 8;
  spec.preset = sns::ChicagoCrimePreset();
  spec.engine = spec.preset.engine;
  spec.engine.rank = 8;
  spec.engine.variant = sns::SnsVariant::kVecPlus;
  spec.shards = 2;
  spec.journal = true;
  spec.live_queries = true;
  spec.tuples_per_span = 2000;  // The preset's density.
  spec.open_rate = 16000.0;
  spec.max_capacity = 120000.0;
  // Rare enough that the stalled shard's queue stays under 1% of the
  // open loop's tuples, so checkpoints show in the p99.9, not the p99.
  spec.checkpoint_every = 65536;
  return spec;
}

// The only path through src/losses and the inline executor: Poisson GCP with
// robust mode on the Taxi shape, synchronous batches of 16, no threads.
WorkloadSpec GcpPoissonInline() {
  WorkloadSpec spec;
  spec.name = "gcp-poisson-inline";
  spec.preset = sns::NewYorkTaxiPreset();
  spec.engine = spec.preset.engine;
  spec.engine.variant = sns::SnsVariant::kVecPlus;
  spec.engine.loss = sns::LossKind::kPoisson;
  spec.engine.robust.enabled = true;
  spec.shards = 0;
  spec.batch = 16;
  spec.tuples_per_span = 2500;
  spec.open_rate = 160.0;
  spec.max_capacity = 1600.0;
  return spec;
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name == "hot-taxi-rnd") {
    *spec = HotTaxiRnd();
  } else if (name == "fleet-crime-vec") {
    *spec = FleetCrimeVec();
  } else if (name == "gcp-poisson-inline") {
    *spec = GcpPoissonInline();
  } else {
    return false;
  }
  return true;
}

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      double seconds) {
  const int64_t span_units =
      static_cast<int64_t>(spec.engine.window_size) * spec.engine.period;
  // Enough live tuples for a closed loop at max_capacity plus the open loop
  // (with slack for the schedule's burstiness).
  const double live_needed =
      spec.max_capacity * seconds * kClosedLoopShare +
      spec.open_rate * seconds * (1.0 - kClosedLoopShare) * 1.2;
  const int64_t live_spans =
      1 + static_cast<int64_t>(std::ceil(
              live_needed / static_cast<double>(spec.num_streams) /
              static_cast<double>(spec.tuples_per_span)));

  Inputs inputs;
  for (int s = 0; s < spec.num_streams; ++s) {
    sns::SyntheticStreamConfig config = spec.preset.stream;
    config.num_events = spec.tuples_per_span * (1 + live_spans);
    config.time_span = span_units * (1 + live_spans);
    config.seed = SplitMix64(seed * 1000003ULL + static_cast<uint64_t>(s));
    auto generated = sns::GenerateSyntheticStream(config);
    if (!generated.ok()) {
      std::fprintf(stderr, "input generation failed: %s\n",
                   generated.status().ToString().c_str());
      std::exit(2);
    }
    StreamInput stream;
    stream.name = spec.num_streams == 1 ? spec.name
                                        : spec.name + "-" + std::to_string(s);
    for (const sns::Tuple& tuple : generated.value().tuples()) {
      (tuple.time <= span_units ? stream.warmup : stream.live)
          .push_back(tuple);
    }
    inputs.streams.push_back(std::move(stream));
  }

  for (int s = 0; s < spec.num_streams; ++s) {
    const auto& live = inputs.streams[static_cast<size_t>(s)].live;
    for (size_t i = 0; i < live.size(); ++i) {
      inputs.order.push_back({s, static_cast<int64_t>(i)});
    }
  }
  std::stable_sort(inputs.order.begin(), inputs.order.end(),
                   [&inputs](const LiveItem& a, const LiveItem& b) {
                     return inputs.tuple(a).time < inputs.tuple(b).time;
                   });

  const double tuples_per_unit =
      static_cast<double>(spec.num_streams * spec.tuples_per_span) /
      static_cast<double>(span_units);
  inputs.seconds_per_time_unit = tuples_per_unit / spec.open_rate;
  return inputs;
}

int CycleSlices::Of(int64_t t) const {
  const double slice =
      static_cast<double>(t - t_first) / units_per_slice;
  return std::clamp(static_cast<int>(slice), 0, count - 1);
}

CycleSlices MakeCycleSlices(const WorkloadSpec& spec, int64_t t_first,
                            int64_t t_last, double units_per_second,
                            double min_seconds) {
  CycleSlices slices;
  slices.t_first = t_first;
  const double cycle = static_cast<double>(spec.preset.stream.diurnal_period);
  const double cycles_per_slice =
      std::max(1.0, std::ceil(min_seconds * units_per_second / cycle));
  slices.units_per_slice = cycles_per_slice * cycle;
  const int full = static_cast<int>(static_cast<double>(t_last - t_first) /
                                    slices.units_per_slice);
  slices.count = full >= 2 ? full : 1;
  return slices;
}

}  // namespace perfbench

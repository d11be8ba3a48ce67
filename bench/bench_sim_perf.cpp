// google-benchmark micro-benchmarks of the simulator itself: how fast the
// closed-form mappers sweep networks and configurations (the co-design
// loop's inner iteration cost), and the functional emulators' MAC rate.
#include <benchmark/benchmark.h>

#include "core/squeezelerator.h"
#include "nn/zoo/zoo.h"
#include "runtime/ops.h"
#include "runtime/weights.h"
#include "sched/network_sim.h"
#include "sim/functional/engines.h"
#include "sim/mappers.h"

namespace {

using namespace sqz;

void BM_SimulateSqueezeNet(benchmark::State& state) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  const auto cfg = sim::AcceleratorConfig::squeezelerator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::simulate_network(m, cfg).total_cycles());
  }
}
BENCHMARK(BM_SimulateSqueezeNet);

void BM_SimulateMobileNet(benchmark::State& state) {
  const nn::Model m = nn::zoo::mobilenet();
  const auto cfg = sim::AcceleratorConfig::squeezelerator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::simulate_network(m, cfg).total_cycles());
  }
}
BENCHMARK(BM_SimulateMobileNet);

void BM_CompareThreeArchitectures(benchmark::State& state) {
  const nn::Model m = nn::zoo::squeezenext();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compare_dataflows(m).speedup_vs_ws());
  }
}
BENCHMARK(BM_CompareThreeArchitectures);

void BM_MapOneLayerWs(benchmark::State& state) {
  const nn::Model m = nn::zoo::squeezenet_v10();
  const auto cfg = sim::AcceleratorConfig::squeezelerator();
  const nn::Layer& l = m.layer(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::map_weight_stationary(l, cfg).compute_cycles);
  }
}
BENCHMARK(BM_MapOneLayerWs)->Arg(1)->Arg(4);

void BM_FunctionalOsEmulation(benchmark::State& state) {
  nn::Model m("f", nn::TensorShape{16, 24, 24});
  m.add_conv("c", 16, 3, 1, 1);
  m.finalize();
  const auto cfg = sim::AcceleratorConfig::squeezelerator();
  const runtime::WeightTensor w =
      runtime::generate_weights(m, 1, runtime::WeightGenConfig{});
  const runtime::Tensor in = runtime::generate_input(m, 1);
  const runtime::Requant rq;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::functional::run_output_stationary(m.layer(1), in, w, rq, cfg)
            .compute_cycles);
  }
  state.SetItemsProcessed(state.iterations() * m.layer(1).macs());
}
BENCHMARK(BM_FunctionalOsEmulation);

void BM_ReferenceConv(benchmark::State& state) {
  nn::Model m("r", nn::TensorShape{16, 24, 24});
  m.add_conv("c", 16, 3, 1, 1);
  m.finalize();
  const runtime::WeightTensor w =
      runtime::generate_weights(m, 1, runtime::WeightGenConfig{});
  const runtime::Tensor in = runtime::generate_input(m, 1);
  const runtime::Requant rq;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::conv2d(in, w, m.layer(1).conv, rq));
  }
  state.SetItemsProcessed(state.iterations() * m.layer(1).macs());
}
BENCHMARK(BM_ReferenceConv);

}  // namespace

BENCHMARK_MAIN();

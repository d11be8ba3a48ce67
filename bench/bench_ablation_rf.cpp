// Ablation: per-PE register-file size (the paper's §4.2 tune-up lever).
// In OS mode the RF bounds how many filters share one input-block preload,
// so it directly trades PE-array area for global-buffer traffic.
#include <cstdio>
#include <iostream>

#include "core/dse.h"
#include "nn/zoo/zoo.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace sqz;
  const auto base = sim::AcceleratorConfig::squeezelerator();
  const std::vector<double> rf_sizes = {2, 4, 8, 16, 32, 64};

  for (const char* which : {"SqueezeNext", "SqueezeNet v1.0", "MobileNet"}) {
    const nn::Model m =
        std::string(which) == "SqueezeNext" ? nn::zoo::squeezenext()
        : std::string(which) == "MobileNet" ? nn::zoo::mobilenet()
                                            : nn::zoo::squeezenet_v10();
    const auto points = core::evaluate_designs(
        m, core::sweep_knob(base, "rf_entries", rf_sizes));
    util::Table t(util::format("RF-size ablation — %s", m.name().c_str()));
    t.set_header({"RF", "kcycles", "energy (M)", "util", "GB reads (M)"});
    for (const core::DesignPoint& p : points) {
      // Re-simulate to expose GB traffic.
      const auto r = sched::simulate_network(m, p.config);
      t.add_row({p.label,
                 util::format("%.0f", static_cast<double>(p.cycles) / 1e3),
                 util::format("%.0f", p.energy / 1e6), util::percent(p.utilization),
                 util::format("%.1f",
                              static_cast<double>(r.total_counts().gb_reads) / 1e6)});
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "Paper context: the Squeezelerator shipped with RF 8 and was re-tuned\n"
      "to RF 16 after the SqueezeNext co-design pass.\n");
  return 0;
}

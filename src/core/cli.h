// The sqzsim command-line driver, as a library function so it is unit
// testable; tools/sqzsim.cpp is a thin main() around run_cli().
//
//   sqzsim --model squeezenet10 [--array 32] [--rf 16] [--sparsity 0.4]
//          [--support hybrid|ws|os] [--objective cycles|energy]
//          [--config accel.ini] [--model-file net.txt]
//          [--per-layer] [--compare] [--timeline] [--csv]
//          [--json report.json] [--trace trace.json]
//          [--sweep KNOB=V1,V2,...] [--journal DIR] [--resume] [--progress]
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/model.h"

namespace sqz::core {

/// Run the CLI. Returns a process exit code (0 on success); all output goes
/// to `out` (reports) and `err` (usage / error messages).
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// The usage text printed on --help or argument errors.
std::string cli_usage();

/// Look up a zoo network by its CLI name (alexnet, mobilenet, tinydarknet,
/// squeezenet10, squeezenet11, sqnxt/sqnxt23). Shared by the CLI and the
/// serving layer so both resolve names identically; throws
/// std::invalid_argument on an unknown name.
nn::Model zoo_model_by_name(const std::string& name);

/// nn::serialize_model(zoo_model_by_name(name)), serialized once per process
/// and name: the canonical text a served request keys and identifies a zoo
/// network by. Thread-safe; throws like zoo_model_by_name.
const std::string& zoo_model_text(const std::string& name);

}  // namespace sqz::core

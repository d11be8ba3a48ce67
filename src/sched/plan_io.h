// Compiled-plan artifacts: serialize a static schedule once, serve it
// forever.
//
// The paper's premise (§4.1.1) is that DNN inference is statically
// schedulable — every dataflow choice, residency decision and DMA
// descriptor is known before the first cycle runs. This module makes that
// schedule a durable artifact: a small, versioned, checksummed binary file
// holding the sched::Program together with the identity of everything it
// was compiled against (model hash, accelerator config, simulation
// fidelity flags). A deployment can compile on a build machine, ship the
// artifact, and replay it on the serving path without ever re-running the
// dual-dataflow search.
//
// Container layout (all integers little-endian):
//
//   offset  size  field
//        0     8  magic "SQZPLAN1"
//        8     4  u32 format version (kPlanFormatVersion)
//       12     8  u64 payload length in bytes
//       20     8  u64 FNV-1a of the payload bytes
//       28     -  payload
//
// The payload is the model identity hash, the model name, the
// AcceleratorConfig (field-wise), the SimulationOptions fidelity flags,
// and the command list. Doubles travel as IEEE-754 bit patterns, so a
// round trip is bit-exact and re-serialization is byte-identical
// (property-tested in tests/sched/test_plan_io.cpp).
//
// Failure discipline mirrors the serving cache (serve/simcache.h): every
// malformed, truncated, or mismatched artifact raises a structured
// PlanError — deserialization either yields a fully validated Program or
// throws; there is no partial success. The hostile-input corpus in
// tests/sched/test_plan_io_fuzz.cpp holds that line.
//
// NOT part of a plan's identity: energy::UnitEnergies. Unit energies scale
// reported energy numbers but never change the schedule when the objective
// is Cycles; like the serving cache key (serve/api.cpp), plans deliberately
// omit them. Callers serving Objective::Energy with non-default units
// should not share artifacts across unit tables.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "nn/model.h"
#include "sched/compile.h"
#include "sched/network_sim.h"
#include "sim/config.h"

namespace sqz::sched {

/// Bump when the container layout changes, and record the change in
/// docs/PLANS.md (version history is mandatory — a reader meeting an
/// unknown version must be able to say what to rebuild with).
inline constexpr std::uint32_t kPlanFormatVersion = 1;

/// Why a plan could not be read or must not be served.
enum class PlanErrorCode {
  Io,                ///< Could not open/read/write the file at all.
  Truncated,         ///< Fewer bytes than the header/payload promise.
  BadMagic,          ///< Not a plan file.
  BadVersion,        ///< A format this build does not speak.
  ChecksumMismatch,  ///< Payload bytes corrupted after the header.
  Malformed,         ///< Checksum fine but the payload grammar is not.
  Invalid,           ///< Decoded cleanly but Program::validate rejected it.
  ModelMismatch,     ///< Artifact was compiled for a different model.
  ConfigMismatch,    ///< ... for a different accelerator config.
  OptionsMismatch,   ///< ... under different fidelity flags.
};

const char* plan_error_code_name(PlanErrorCode code) noexcept;

class PlanError : public std::runtime_error {
 public:
  PlanError(PlanErrorCode code, const std::string& message)
      : std::runtime_error(std::string(plan_error_code_name(code)) + ": " +
                           message),
        code_(code) {}
  PlanErrorCode code() const noexcept { return code_; }

 private:
  PlanErrorCode code_;
};

/// True when the schedule-relevant fidelity flags agree (objective,
/// tile_timeline, double_buffered, tile_search, fuse_pool_drain).
bool plan_options_equal(const SimulationOptions& a,
                        const SimulationOptions& b) noexcept;

/// A compiled plan plus the identity of what it was compiled against.
struct PlanArtifact {
  /// fnv1a64 over nn::serialize_model(model) — the same canonical text the
  /// serving cache keys on, so "same model" means the same thing everywhere.
  std::uint64_t model_hash = 0;
  /// The fidelity flags the plan's expected cycles were computed under.
  /// (units are intentionally absent — see the header comment.)
  SimulationOptions options{};
  Program program;

  // Not defaulted: SimulationOptions carries the units table, which is not
  // equality-comparable and (deliberately) not part of plan identity.
  friend bool operator==(const PlanArtifact& a, const PlanArtifact& b) {
    return a.model_hash == b.model_hash &&
           plan_options_equal(a.options, b.options) && a.program == b.program;
  }
};

/// Canonical model identity: fnv1a64 of the serialized model text.
std::uint64_t model_identity_hash(const nn::Model& model);
/// The same identity from text already serialized (nn::serialize_model).
std::uint64_t model_identity_hash(const std::string& model_text);

/// Compile `model` and wrap the program in an artifact.
PlanArtifact compile_plan(const nn::Model& model,
                          const sim::AcceleratorConfig& config,
                          const SimulationOptions& options = {});

/// Wrap an already-computed simulation (the serving cold path: one
/// simulate_network call yields both the response and the artifact).
PlanArtifact plan_from_result(const nn::Model& model,
                              const sim::AcceleratorConfig& config,
                              const SimulationOptions& options,
                              const sim::NetworkResult& result);
/// Same, with `model`'s serialized text already in hand (a served request
/// serializes its model once).
PlanArtifact plan_from_result(const nn::Model& model,
                              const std::string& model_text,
                              const sim::AcceleratorConfig& config,
                              const SimulationOptions& options,
                              const sim::NetworkResult& result);

/// Serialize to the container format. Deterministic: equal artifacts
/// produce identical bytes.
std::string serialize_plan(const PlanArtifact& artifact);

/// Parse and fully validate an artifact. Throws PlanError on any defect —
/// never returns a partially-decoded plan.
PlanArtifact deserialize_plan(std::string_view bytes);

/// Atomic write (tmp + rename), matching the cache's publish discipline so
/// a crash mid-write can never leave a half-plan under the final name.
/// Throws PlanError{Io} on filesystem failure.
void save_plan(const std::string& path, const PlanArtifact& artifact);

/// Read + deserialize_plan. Throws PlanError (Io if unreadable, otherwise
/// whatever deserialize_plan finds).
PlanArtifact load_plan(const std::string& path);

/// Refuse to serve a plan compiled for different inputs: throws PlanError
/// {ModelMismatch, ConfigMismatch, OptionsMismatch} naming the first
/// disagreement. A passing check means simulate_with_plan(model, config,
/// options, artifact.program) is byte-identical to a fresh compile.
void check_plan_serves(const PlanArtifact& artifact, const nn::Model& model,
                       const sim::AcceleratorConfig& config,
                       const SimulationOptions& options);

}  // namespace sqz::sched

#include "sched/plan_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "nn/serialize.h"
#include "util/faultinject.h"
#include "util/hash.h"

namespace sqz::sched {

namespace {

constexpr char kMagic[8] = {'S', 'Q', 'Z', 'P', 'L', 'A', 'N', '1'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

// Sanity ceilings for attacker-controlled counts: large enough for any real
// model, small enough that a hostile length field cannot ask for gigabytes.
constexpr std::uint32_t kMaxCommands = 100000;
constexpr std::uint32_t kMaxStringBytes = 4096;

// --- little-endian primitives ------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_str(std::string& out, const std::string& s) {
  if (s.size() > kMaxStringBytes)
    throw PlanError(PlanErrorCode::Malformed,
                    "string too long to serialize (" +
                        std::to_string(s.size()) + " bytes)");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

/// Strictly bounds-checked payload reader: every primitive either yields a
/// value or throws Truncated/Malformed. Nothing is ever read past `end`.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : p_(bytes.data()), n_(bytes.size()) {}

  std::uint8_t u8(const char* what) {
    need(1, what);
    return static_cast<std::uint8_t>(p_[pos_++]);
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return v;
  }

  std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }
  std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }

  double f64(const char* what) {
    const std::uint64_t bits = u64(what);
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool flag(const char* what) {
    const std::uint8_t v = u8(what);
    if (v > 1)
      throw PlanError(PlanErrorCode::Malformed,
                      std::string(what) + " flag byte " + std::to_string(v) +
                          " (want 0 or 1)");
    return v != 0;
  }

  std::uint8_t enum8(const char* what, std::uint8_t max_value) {
    const std::uint8_t v = u8(what);
    if (v > max_value)
      throw PlanError(PlanErrorCode::Malformed,
                      std::string(what) + " enum value " + std::to_string(v) +
                          " out of range (max " + std::to_string(max_value) +
                          ")");
    return v;
  }

  std::string str(const char* what) {
    const std::uint32_t len = u32(what);
    if (len > kMaxStringBytes)
      throw PlanError(PlanErrorCode::Malformed,
                      std::string(what) + " length " + std::to_string(len) +
                          " exceeds the " + std::to_string(kMaxStringBytes) +
                          "-byte cap");
    need(len, what);
    std::string s(p_ + pos_, len);
    pos_ += len;
    return s;
  }

  std::size_t leftover() const { return n_ - pos_; }

 private:
  void need(std::size_t bytes, const char* what) {
    if (n_ - pos_ < bytes)
      throw PlanError(PlanErrorCode::Truncated,
                      std::string("payload ends inside ") + what);
  }

  const char* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

void write_config(std::string& out, const sim::AcceleratorConfig& c) {
  put_i32(out, c.array_n);
  put_i32(out, c.rf_entries);
  put_i32(out, c.gb_kib);
  put_i32(out, c.preload_width);
  put_i32(out, c.drain_width);
  put_i32(out, c.weight_reserve_words);
  put_i32(out, c.psum_accum_words);
  put_i32(out, c.simd_lanes);
  put_i32(out, c.dram_latency_cycles);
  put_i32(out, c.batch);
  put_i32(out, c.data_bytes);
  put_f64(out, c.dram_bytes_per_cycle);
  put_f64(out, c.weight_sparsity);
  put_u8(out, c.os_zero_skip ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(c.support));
  put_u8(out, c.ws_psums_in_gb ? 1 : 0);
}

sim::AcceleratorConfig read_config(Reader& r) {
  sim::AcceleratorConfig c;
  c.array_n = r.i32("config.array_n");
  c.rf_entries = r.i32("config.rf_entries");
  c.gb_kib = r.i32("config.gb_kib");
  c.preload_width = r.i32("config.preload_width");
  c.drain_width = r.i32("config.drain_width");
  c.weight_reserve_words = r.i32("config.weight_reserve_words");
  c.psum_accum_words = r.i32("config.psum_accum_words");
  c.simd_lanes = r.i32("config.simd_lanes");
  c.dram_latency_cycles = r.i32("config.dram_latency_cycles");
  c.batch = r.i32("config.batch");
  c.data_bytes = r.i32("config.data_bytes");
  c.dram_bytes_per_cycle = r.f64("config.dram_bytes_per_cycle");
  c.weight_sparsity = r.f64("config.weight_sparsity");
  c.os_zero_skip = r.flag("config.os_zero_skip");
  c.support = static_cast<sim::DataflowSupport>(r.enum8("config.support", 2));
  c.ws_psums_in_gb = r.flag("config.ws_psums_in_gb");
  return c;
}

void write_options(std::string& out, const SimulationOptions& o) {
  put_u8(out, static_cast<std::uint8_t>(o.objective));
  put_u8(out, o.tile_timeline ? 1 : 0);
  put_u8(out, o.double_buffered ? 1 : 0);
  put_u8(out, o.tile_search ? 1 : 0);
  put_u8(out, o.fuse_pool_drain ? 1 : 0);
}

SimulationOptions read_options(Reader& r) {
  SimulationOptions o;
  o.objective = static_cast<Objective>(r.enum8("options.objective", 1));
  o.tile_timeline = r.flag("options.tile_timeline");
  o.double_buffered = r.flag("options.double_buffered");
  o.tile_search = r.flag("options.tile_search");
  o.fuse_pool_drain = r.flag("options.fuse_pool_drain");
  return o;
}

void write_command(std::string& out, const LayerCommand& c) {
  put_i32(out, c.layer_idx);
  put_str(out, c.layer_name);
  put_u8(out, static_cast<std::uint8_t>(c.unit));
  put_u8(out, static_cast<std::uint8_t>(c.dataflow));
  put_u8(out, c.input_from_dram ? 1 : 0);
  put_u8(out, c.output_to_dram ? 1 : 0);
  put_i64(out, c.weight_words);
  put_i64(out, c.dma_in_words);
  put_i64(out, c.dma_out_words);
  put_i32(out, c.tile_count);
  put_i64(out, c.expected_cycles);
}

LayerCommand read_command(Reader& r) {
  LayerCommand c;
  c.layer_idx = r.i32("command.layer_idx");
  c.layer_name = r.str("command.layer_name");
  c.unit = static_cast<LayerCommand::Unit>(r.enum8("command.unit", 3));
  c.dataflow = static_cast<sim::Dataflow>(r.enum8("command.dataflow", 1));
  c.input_from_dram = r.flag("command.input_from_dram");
  c.output_to_dram = r.flag("command.output_to_dram");
  c.weight_words = r.i64("command.weight_words");
  c.dma_in_words = r.i64("command.dma_in_words");
  c.dma_out_words = r.i64("command.dma_out_words");
  c.tile_count = r.i32("command.tile_count");
  c.expected_cycles = r.i64("command.expected_cycles");
  return c;
}

}  // namespace

const char* plan_error_code_name(PlanErrorCode code) noexcept {
  switch (code) {
    case PlanErrorCode::Io: return "plan io error";
    case PlanErrorCode::Truncated: return "plan truncated";
    case PlanErrorCode::BadMagic: return "not a plan file";
    case PlanErrorCode::BadVersion: return "unsupported plan version";
    case PlanErrorCode::ChecksumMismatch: return "plan checksum mismatch";
    case PlanErrorCode::Malformed: return "malformed plan";
    case PlanErrorCode::Invalid: return "invalid plan";
    case PlanErrorCode::ModelMismatch: return "plan model mismatch";
    case PlanErrorCode::ConfigMismatch: return "plan config mismatch";
    case PlanErrorCode::OptionsMismatch: return "plan options mismatch";
  }
  return "plan error";
}

std::uint64_t model_identity_hash(const nn::Model& model) {
  return model_identity_hash(nn::serialize_model(model));
}

std::uint64_t model_identity_hash(const std::string& model_text) {
  return util::fnv1a64(model_text);
}

bool plan_options_equal(const SimulationOptions& a,
                        const SimulationOptions& b) noexcept {
  return a.objective == b.objective && a.tile_timeline == b.tile_timeline &&
         a.double_buffered == b.double_buffered &&
         a.tile_search == b.tile_search &&
         a.fuse_pool_drain == b.fuse_pool_drain;
}

PlanArtifact compile_plan(const nn::Model& model,
                          const sim::AcceleratorConfig& config,
                          const SimulationOptions& options) {
  PlanArtifact artifact;
  artifact.model_hash = model_identity_hash(model);
  artifact.options = options;
  artifact.program = compile(model, config, options);
  return artifact;
}

PlanArtifact plan_from_result(const nn::Model& model,
                              const sim::AcceleratorConfig& config,
                              const SimulationOptions& options,
                              const sim::NetworkResult& result) {
  return plan_from_result(model, nn::serialize_model(model), config, options,
                          result);
}

PlanArtifact plan_from_result(const nn::Model& model,
                              const std::string& model_text,
                              const sim::AcceleratorConfig& config,
                              const SimulationOptions& options,
                              const sim::NetworkResult& result) {
  PlanArtifact artifact;
  artifact.model_hash = model_identity_hash(model_text);
  artifact.options = options;
  artifact.program = compile_from_result(model, config, options, result);
  return artifact;
}

std::string serialize_plan(const PlanArtifact& artifact) {
  if (artifact.program.commands.size() > kMaxCommands)
    throw PlanError(PlanErrorCode::Malformed,
                    "program has more commands than the format allows");

  std::string payload;
  put_u64(payload, artifact.model_hash);
  put_str(payload, artifact.program.model_name);
  write_config(payload, artifact.program.config);
  write_options(payload, artifact.options);
  put_u32(payload, static_cast<std::uint32_t>(artifact.program.commands.size()));
  for (const LayerCommand& c : artifact.program.commands)
    write_command(payload, c);

  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kPlanFormatVersion);
  put_u64(out, payload.size());
  put_u64(out, util::fnv1a64(payload));
  out += payload;
  return out;
}

PlanArtifact deserialize_plan(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic))
    throw PlanError(PlanErrorCode::Truncated,
                    "file shorter than the magic (" +
                        std::to_string(bytes.size()) + " bytes)");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    throw PlanError(PlanErrorCode::BadMagic, "magic bytes do not match");
  if (bytes.size() < kHeaderBytes)
    throw PlanError(PlanErrorCode::Truncated,
                    "file ends inside the header (" +
                        std::to_string(bytes.size()) + " bytes)");

  Reader header(bytes.substr(sizeof(kMagic), kHeaderBytes - sizeof(kMagic)));
  const std::uint32_t version = header.u32("header.version");
  if (version != kPlanFormatVersion)
    throw PlanError(PlanErrorCode::BadVersion,
                    "version " + std::to_string(version) +
                        " (this build speaks version " +
                        std::to_string(kPlanFormatVersion) +
                        "; see docs/PLANS.md)");
  const std::uint64_t payload_len = header.u64("header.payload_len");
  const std::uint64_t stored_sum = header.u64("header.checksum");

  const std::string_view payload = bytes.substr(kHeaderBytes);
  // Exact-length match: a short file is truncation, a long one is trailing
  // garbage; neither may pass.
  if (payload.size() != payload_len)
    throw PlanError(PlanErrorCode::Truncated,
                    "payload is " + std::to_string(payload.size()) +
                        " bytes, header promises " +
                        std::to_string(payload_len));
  if (util::fnv1a64(payload) != stored_sum)
    throw PlanError(PlanErrorCode::ChecksumMismatch,
                    "payload bytes do not match the stored checksum");

  Reader r(payload);
  PlanArtifact artifact;
  artifact.model_hash = r.u64("model_hash");
  artifact.program.model_name = r.str("model_name");
  artifact.program.config = read_config(r);
  artifact.options = read_options(r);
  const std::uint32_t count = r.u32("command_count");
  if (count > kMaxCommands)
    throw PlanError(PlanErrorCode::Malformed,
                    "command count " + std::to_string(count) +
                        " exceeds the " + std::to_string(kMaxCommands) +
                        " cap");
  artifact.program.commands.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    artifact.program.commands.push_back(read_command(r));
  if (r.leftover() != 0)
    throw PlanError(PlanErrorCode::Malformed,
                    std::to_string(r.leftover()) +
                        " unread bytes after the last command");

  try {
    artifact.program.validate();
  } catch (const std::invalid_argument& e) {
    throw PlanError(PlanErrorCode::Invalid, e.what());
  }
  return artifact;
}

void save_plan(const std::string& path, const PlanArtifact& artifact) {
  std::string bytes = serialize_plan(artifact);

  // "plan.write" fault point: Errno models a full/failing disk, ShortIo a
  // crash after a partial write — the truncated bytes are published so the
  // read path's checksum must catch them.
  bool truncated = false;
  if (util::fault::enabled()) {
    const util::fault::Action a = util::fault::at("plan.write");
    if (a.kind == util::fault::Kind::Errno) {
      errno = a.err;
      throw PlanError(PlanErrorCode::Io, "cannot write '" + path +
                                             "': " + std::strerror(a.err));
    }
    if (a.kind == util::fault::Kind::ShortIo) {
      bytes.resize(std::min(bytes.size(), a.bytes));
      truncated = true;
    }
  }
  (void)truncated;

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw PlanError(PlanErrorCode::Io, "cannot open '" + tmp + "'");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      throw PlanError(PlanErrorCode::Io, "write failed for '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {  // atomic publish
    std::remove(tmp.c_str());
    throw PlanError(PlanErrorCode::Io, "rename failed for '" + path + "'");
  }
}

PlanArtifact load_plan(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw PlanError(PlanErrorCode::Io, "cannot open '" + path + "'");
  std::string bytes;
  {
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
      throw PlanError(PlanErrorCode::Io, "read failed for '" + path + "'");
    bytes = buf.str();
  }

  // "plan.read" fault point: Errno models a failing device, ShortIo a torn
  // read — deserialize_plan must reject the remainder.
  if (util::fault::enabled()) {
    const util::fault::Action a = util::fault::at("plan.read");
    if (a.kind == util::fault::Kind::Errno) {
      errno = a.err;
      throw PlanError(PlanErrorCode::Io, "read failed for '" + path +
                                             "': " + std::strerror(a.err));
    }
    if (a.kind == util::fault::Kind::ShortIo)
      bytes.resize(std::min(bytes.size(), a.bytes));
  }

  return deserialize_plan(bytes);
}

void check_plan_serves(const PlanArtifact& artifact, const nn::Model& model,
                       const sim::AcceleratorConfig& config,
                       const SimulationOptions& options) {
  const std::uint64_t want = model_identity_hash(model);
  if (artifact.model_hash != want) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "plan was compiled for model %016llx, request is %016llx",
                  static_cast<unsigned long long>(artifact.model_hash),
                  static_cast<unsigned long long>(want));
    throw PlanError(PlanErrorCode::ModelMismatch, msg);
  }
  if (!(artifact.program.config == config))
    throw PlanError(PlanErrorCode::ConfigMismatch,
                    "plan was compiled for accelerator config " +
                        artifact.program.config.to_string() +
                        ", request is " + config.to_string());
  if (!plan_options_equal(artifact.options, options))
    throw PlanError(PlanErrorCode::OptionsMismatch,
                    "plan was compiled under different simulation fidelity "
                    "flags than the request");
}

}  // namespace sqz::sched

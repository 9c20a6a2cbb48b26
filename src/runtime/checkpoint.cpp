#include "runtime/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "balance/partition.hpp"
#include "comm/message.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"

namespace dynmo::runtime {

namespace {

void pack_layer_state(comm::Packer& p, const model::LayerState& s) {
  p.put(s.weight_density);
  p.put(static_cast<std::uint8_t>(s.frozen ? 1 : 0));
  p.put(s.attn_density);
  p.put(s.token_fraction);
  p.put(s.moe_load);
  p.put(s.compute_scale);
  p.put(static_cast<std::uint8_t>(s.spmm_backend));
}

/// Wire size of one packed LayerState (pack_layer_state above): five f64
/// fields plus the two u8 flags.
constexpr std::size_t kPackedLayerStateBytes = 5 * sizeof(double) + 2;

model::LayerState unpack_layer_state(comm::Unpacker& u) {
  model::LayerState s;
  s.weight_density = u.get<double>();
  s.frozen = u.get<std::uint8_t>() != 0;
  s.attn_density = u.get<double>();
  s.token_fraction = u.get<double>();
  s.moe_load = u.get<double>();
  s.compute_scale = u.get<double>();
  s.spmm_backend = static_cast<hw::SpmmBackend>(u.get<std::uint8_t>());
  return s;
}

/// Frame one field in place: [u16 tag][u64 size][payload bytes], the
/// size patched in once `fill` has appended the payload.
template <typename Fn>
void put_field(comm::Packer& p, CheckpointField tag, Fn&& fill) {
  p.put(static_cast<std::uint16_t>(tag));
  const std::size_t size_at = p.size();
  p.put<std::uint64_t>(0);
  fill(p);
  p.put_at<std::uint64_t>(size_at,
                          p.size() - size_at - sizeof(std::uint64_t));
}

/// Parse one field payload, converting any structural failure (overrun,
/// shape mismatch) into an error that names the field and the offset —
/// `field_off` is where the field's frame starts in the whole stream,
/// `u.pos()` how far into the payload the parse got.
template <typename Fn>
void parse_field(CheckpointField tag, std::size_t field_off,
                 std::span<const std::byte> payload, Fn&& fn) {
  comm::Unpacker u(payload);
  try {
    fn(u);
    DYNMO_CHECK(u.exhausted(), "field has " << u.remaining()
                                            << " trailing bytes");
  } catch (const Error& e) {
    throw Error(std::string("checkpoint field '") + to_string(tag) +
                "' invalid at stream offset " + std::to_string(field_off) +
                " (+" + std::to_string(u.pos()) +
                " into the field): " + e.what());
  }
}

}  // namespace

void put_tensor(comm::Packer& p, const tensor::Tensor& t) {
  p.put<std::uint64_t>(t.rows());
  p.put<std::uint64_t>(t.cols());
  p.put_span(t.data());
}

tensor::Tensor get_tensor(comm::Unpacker& u) {
  const auto rows = u.get<std::uint64_t>();
  const auto cols = u.get<std::uint64_t>();
  const auto data = u.get_span<float>();
  const std::size_t count = data.size() / sizeof(float);
  // Divide instead of multiplying rows * cols: a corrupted shape whose
  // product wraps past 2^64 must fail here, not reach the Tensor allocator.
  const bool shape_ok = (rows == 0 || cols == 0)
                            ? count == 0
                            : count / rows == cols && count % rows == 0;
  DYNMO_CHECK(shape_ok, "tensor shape " << rows << "x" << cols << " != "
                                        << count << " floats");
  tensor::Tensor t(rows, cols);
  if (count != 0) std::memcpy(t.data().data(), data.data(), data.size());
  return t;
}

void put_weights(comm::Packer& p, const LayerWeights& weights) {
  p.put<std::uint64_t>(weights.size());
  for (const auto& [layer, w] : weights) {
    p.put(layer);
    put_tensor(p, w);
  }
}

void get_weights(comm::Unpacker& u, LayerWeights& out) {
  const auto n = u.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto layer = u.get<std::uint64_t>();
    out.insert_or_assign(layer, get_tensor(u));
  }
}

/// One fold step: xor the word in, multiply by an odd constant, xorshift.
/// For a fixed word each of the three is a bijection of the state, and
/// for a fixed state the step is a bijection of the word.
constexpr std::uint64_t fold_word(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * 0x9fb21c651e98df25ULL;
  return h ^ (h >> 29);
}

std::uint64_t Checkpoint::checksum(std::span<const std::byte> bytes) {
  // Word i folds into lane i % 4, so the four chains run in parallel.
  std::uint64_t lane[4] = {0x9e3779b97f4a7c15ULL, 0xd1b54a32d192ed03ULL,
                           0x8cb92ba72f3d8dd7ULL, 0xabc98388fb8fac03ULL};
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (std::size_t j = 0; j < 4; ++j) {
      std::uint64_t w;
      std::memcpy(&w, bytes.data() + i + 8 * j, sizeof(w));
      lane[j] = fold_word(lane[j], w);
    }
  }
  // Up to three whole words, then the tail zero-padded into a last word.
  for (std::size_t j = 0; i < n; i += 8, ++j) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, std::min<std::size_t>(8, n - i));
    lane[j] = fold_word(lane[j], w);
  }
  std::uint64_t h = lane[0];
  for (std::size_t j = 1; j < 4; ++j) h = fold_word(h, lane[j]);
  // Mixing the length in separates streams that differ only in trailing
  // zero bytes.
  h ^= n;
  return splitmix64(h);
}

const char* to_string(CheckpointField f) {
  switch (f) {
    case CheckpointField::Iteration: return "iteration";
    case CheckpointField::StageMap: return "stage_map";
    case CheckpointField::LayerStates: return "layer_states";
    case CheckpointField::Weights: return "weights";
  }
  return "?";
}

std::vector<std::byte> Checkpoint::serialize() const {
  // Reserve the whole stream up front (header, frames, counts and trailer
  // fit in 128 bytes): grown by doubling, a restart-sized stream would be
  // reallocated and copied over a dozen times.
  std::size_t capacity = 128 + 8 * stage_map.boundaries().size() +
                         kPackedLayerStateBytes * layer_states.size();
  for (const auto& [layer, w] : weights) capacity += 4 * 8 + w.bytes();
  comm::Packer p;
  p.reserve(capacity);
  p.put(kMagic);
  p.put(kVersion);
  put_field(p, CheckpointField::Iteration,
            [&](comm::Packer& f) { f.put(iteration); });
  put_field(p, CheckpointField::StageMap, [&](comm::Packer& f) {
    const auto& b = stage_map.boundaries();
    f.put_vector(std::vector<std::uint64_t>(b.begin(), b.end()));
  });
  put_field(p, CheckpointField::LayerStates, [&](comm::Packer& f) {
    f.put<std::uint64_t>(layer_states.size());
    for (const auto& s : layer_states) pack_layer_state(f, s);
  });
  put_field(p, CheckpointField::Weights,
            [&](comm::Packer& f) { put_weights(f, weights); });
  p.put(checksum(p.bytes()));
  return p.take();
}

Checkpoint Checkpoint::deserialize(std::span<const std::byte> bytes) {
  // Header (magic+version) + checksum trailer is the minimum stream.
  constexpr std::size_t kMinBytes = 2 * sizeof(std::uint32_t) +
                                    sizeof(std::uint64_t);
  DYNMO_CHECK(bytes.size() >= kMinBytes,
              "checkpoint truncated: " << bytes.size() << " bytes, header + "
              << "checksum need " << kMinBytes);
  const auto body = bytes.first(bytes.size() - sizeof(std::uint64_t));

  // Structure first, integrity second: a truncated stream then fails with
  // the *field* it died in, and only structurally-sound streams reach the
  // checksum comparison (which then indicts bit corruption specifically).
  comm::Unpacker u(body);
  const auto magic = u.get<std::uint32_t>();
  DYNMO_CHECK(magic == kMagic,
              "not a DynMo checkpoint (magic 0x" << std::hex << magic
                                                 << ", want 0x" << kMagic
                                                 << ")");
  const auto version = u.get<std::uint32_t>();
  DYNMO_CHECK(version == kVersion, "unsupported checkpoint version "
                                       << version << " (this build reads "
                                       << kVersion << ")");

  Checkpoint ckpt;
  while (!u.exhausted()) {
    const std::size_t field_off = u.pos();
    std::uint16_t raw_tag = 0;
    std::span<const std::byte> payload;
    try {
      raw_tag = u.get<std::uint16_t>();
      payload = u.get_span<std::byte>();
    } catch (const Error&) {
      throw Error("checkpoint field frame truncated at stream offset " +
                  std::to_string(field_off) + " (" +
                  std::to_string(body.size() - field_off) +
                  " bytes left of a " + std::to_string(body.size()) +
                  "-byte body)");
    }
    switch (static_cast<CheckpointField>(raw_tag)) {
      case CheckpointField::Iteration:
        parse_field(CheckpointField::Iteration, field_off, payload,
                    [&](comm::Unpacker& f) {
                      ckpt.iteration = f.get<std::int64_t>();
                    });
        break;
      case CheckpointField::StageMap:
        parse_field(CheckpointField::StageMap, field_off, payload,
                    [&](comm::Unpacker& f) {
                      const auto b64 = f.get_vector<std::uint64_t>();
                      ckpt.stage_map = pipeline::StageMap::from_boundaries(
                          std::vector<std::size_t>(b64.begin(), b64.end()));
                    });
        break;
      case CheckpointField::LayerStates:
        parse_field(CheckpointField::LayerStates, field_off, payload,
                    [&](comm::Unpacker& f) {
                      const auto n = f.get<std::uint64_t>();
                      // Bound the count by the payload *before* reserve():
                      // a corrupted count must surface as this Error, not
                      // as a std::length_error / huge allocation.
                      DYNMO_CHECK(
                          n <= f.remaining() / kPackedLayerStateBytes,
                          "state count " << n << " exceeds the "
                                         << f.remaining()
                                         << " payload bytes left");
                      ckpt.layer_states.clear();
                      ckpt.layer_states.reserve(n);
                      for (std::uint64_t i = 0; i < n; ++i) {
                        ckpt.layer_states.push_back(unpack_layer_state(f));
                      }
                    });
        break;
      case CheckpointField::Weights:
        parse_field(CheckpointField::Weights, field_off, payload,
                    [&](comm::Unpacker& f) { get_weights(f, ckpt.weights); });
        break;
      default:
        // Unknown tag within a known version: a future writer added a
        // field.  The frame carries its size, so skip it (the checksum
        // still covers it).
        break;
    }
  }

  {
    comm::Unpacker tail(bytes.subspan(body.size()));
    const auto stored = tail.get<std::uint64_t>();
    const auto computed = checksum(body);
    DYNMO_CHECK(stored == computed,
                "checkpoint integrity checksum mismatch (stored 0x"
                    << std::hex << stored << ", computed 0x" << computed
                    << "): bit corruption in a structurally valid stream");
  }
  return ckpt;
}

void Checkpoint::save(const std::string& path) const {
  const auto bytes = serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DYNMO_CHECK(out.good(), "cannot open checkpoint file " << path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  DYNMO_CHECK(out.good(), "short write to " << path);
}

Checkpoint Checkpoint::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  DYNMO_CHECK(in.good(), "cannot open checkpoint file " << path);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::byte> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  DYNMO_CHECK(in.good(), "short read from " << path);
  return deserialize(bytes);
}

bool Checkpoint::operator==(const Checkpoint& other) const {
  if (iteration != other.iteration || stage_map != other.stage_map ||
      layer_states.size() != other.layer_states.size() ||
      weights.size() != other.weights.size()) {
    return false;
  }
  for (std::size_t i = 0; i < layer_states.size(); ++i) {
    const auto& a = layer_states[i];
    const auto& b = other.layer_states[i];
    if (a.weight_density != b.weight_density || a.frozen != b.frozen ||
        a.attn_density != b.attn_density ||
        a.token_fraction != b.token_fraction || a.moe_load != b.moe_load ||
        a.compute_scale != b.compute_scale ||
        a.spmm_backend != b.spmm_backend) {
      return false;
    }
  }
  for (const auto& [layer, w] : weights) {
    const auto it = other.weights.find(layer);
    if (it == other.weights.end() || !it->second.same_shape(w)) return false;
    const auto a = w.data();
    const auto b = it->second.data();
    if (!std::equal(a.begin(), a.end(), b.begin())) return false;
  }
  return true;
}

Checkpoint reshard_for_restart(Checkpoint ckpt, int new_workers,
                               std::span<const double> balance_weights) {
  DYNMO_CHECK(new_workers > 0, "need at least one worker");
  DYNMO_CHECK(balance_weights.size() == ckpt.stage_map.num_layers(),
              "balance weight count mismatch");
  balance::PartitionRequest req;
  req.weights.assign(balance_weights.begin(), balance_weights.end());
  req.num_stages = new_workers;
  ckpt.stage_map = balance::PartitionBalancer{}.balance(req).map;
  return ckpt;
}

}  // namespace dynmo::runtime

// Checkpointing, and checkpoint-coordinated re-packing (paper §3.4.2).
//
// "Re-packing can be coordinated with checkpointing. ... By combining
// re-packing with a checkpoint restart, the implementation is simplified
// since a new NCCL communicator is already created during the restart.
// Moreover, because the model is reloaded and resharded among the workers
// during checkpoint recovery, there is no additional overhead for
// resharding the model to a new set of workers."
//
// A Checkpoint captures everything needed to resume training on a
// *different* worker count: iteration, stage map, per-layer dynamic state,
// and (for the threaded runtime) the layer weights.  The binary format is
// a tagged, versioned stream with a trailing integrity checksum; the full
// byte layout is documented in docs/RUNTIME.md.  Every field is framed as
// [u16 tag][u64 size][payload], so deserialize() can both name the field a
// truncated/corrupt stream died in and skip fields it does not know
// (forward compatibility within a version).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "comm/message.hpp"
#include "model/layer.hpp"
#include "pipeline/stage_map.hpp"
#include "tensor/tensor.hpp"

namespace dynmo::runtime {

/// Field tags of the checkpoint stream (docs/RUNTIME.md byte-layout table).
enum class CheckpointField : std::uint16_t {
  Iteration = 1,
  StageMap = 2,
  LayerStates = 3,
  Weights = 4,
};

const char* to_string(CheckpointField f);

/// Tensor wire codec, [u64 rows][u64 cols][u64 float count][f32 data]:
/// each entry of the Weights field, and every tensor the threaded runtime
/// sends.  get_tensor throws dynmo::Error unless count == rows x cols.
void put_tensor(comm::Packer& p, const tensor::Tensor& t);
tensor::Tensor get_tensor(comm::Unpacker& u);

/// The Weights field payload: u64 count, then per entry u64 layer id and
/// a put_tensor body.  get_weights inserts (or overwrites) into `out`.
using LayerWeights = std::map<std::uint64_t, tensor::Tensor>;
void put_weights(comm::Packer& p, const LayerWeights& weights);
void get_weights(comm::Unpacker& u, LayerWeights& out);

struct Checkpoint {
  static constexpr std::uint32_t kMagic = 0x44594e4d;  // "DYNM"
  /// v3: the trailer is the word-wise checksum() (v2 folded byte by
  /// byte).  v2 introduced the tagged [tag][size][payload] field framing
  /// (v1 was positional).  Any other version is rejected.
  static constexpr std::uint32_t kVersion = 3;

  std::int64_t iteration = 0;
  pipeline::StageMap stage_map;
  std::vector<model::LayerState> layer_states;
  /// Layer weights (threaded runtime); may be empty for simulated sessions.
  LayerWeights weights;

  /// Serialize to a byte buffer (stable across platforms of equal
  /// endianness; includes an integrity checksum).
  std::vector<std::byte> serialize() const;
  /// Parse; throws dynmo::Error on corruption / version mismatch.  Error
  /// messages are specific (docs/RUNTIME.md "Failure reporting"): a
  /// structural failure names the field and the byte offset it occurred
  /// at; a stream that parses structurally but fails the integrity check
  /// reports both checksum values.
  static Checkpoint deserialize(std::span<const std::byte> bytes);

  /// The integrity trailer: a fold over 8-byte little-endian words (the
  /// tail zero-padded into a last word), four lanes interleaved, then the
  /// length mixed into a splitmix64 finalizer.  Every step is a bijection
  /// of the running state, so any corruption confined to one aligned word
  /// always changes the value (docs/RUNTIME.md "Integrity checksum").
  static std::uint64_t checksum(std::span<const std::byte> bytes);

  /// Convenience file I/O.
  void save(const std::string& path) const;
  static Checkpoint load(const std::string& path);

  bool operator==(const Checkpoint& other) const;
};

/// Re-shard a checkpoint's stage map for a new worker count during restart
/// (the "reloaded and resharded" path): layers are re-partitioned by the
/// given per-layer weights onto `new_workers` stages.  The checkpoint's
/// dynamic layer states and weights are preserved untouched.  Both shrink
/// (new_workers < current) and expand (new_workers > current) restarts go
/// through here — see runtime::ElasticController for the decision side.
Checkpoint reshard_for_restart(Checkpoint ckpt, int new_workers,
                               std::span<const double> balance_weights);

}  // namespace dynmo::runtime

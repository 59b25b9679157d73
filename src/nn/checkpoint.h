// Module checkpointing: save/restore all named parameters of a bundle of
// named modules — a whole rationalizer (generator + predictor
// [+ discriminator]) is one bundle.
//
// The format is a self-describing text file (versioned header, then per
// module its name and one record per parameter with its slash-qualified
// name, shape, and values), so checkpoints survive recompilation and are
// diffable. Values are printed with max_digits10 significant digits, which
// makes the round trip bit-exact for IEEE-754 floats — a served model
// matches the trained one exactly. Loading verifies that module names and
// order, parameter names and shapes match the target exactly — a
// checkpoint is only valid for the architecture that wrote it. Every
// record is parsed and validated before any parameter is assigned, so a
// failed load leaves all target modules unchanged. The header carries
// version 2; any other version is rejected.
#ifndef DAR_NN_CHECKPOINT_H_
#define DAR_NN_CHECKPOINT_H_

#include <string>
#include <vector>

#include "nn/module.h"

namespace dar {
namespace nn {

/// Outcome of a checkpoint load.
struct CheckpointResult {
  bool ok = false;
  std::string error;
};

/// One entry of a checkpoint bundle. The module is referenced, not owned;
/// it must outlive any call using the NamedModule.
struct NamedModule {
  std::string name;
  Module* module = nullptr;
};

/// Serializes every parameter of a bundle of named modules to the
/// checkpoint text format. Module names must be unique and free of
/// whitespace.
std::string SerializeCheckpoint(const std::vector<NamedModule>& modules);

/// Restores a bundle from text produced by SerializeCheckpoint. The
/// bundle's module names, order, and parameter structure must match.
CheckpointResult DeserializeCheckpoint(const std::vector<NamedModule>& modules,
                                       const std::string& text);

/// SerializeCheckpoint to a file, atomically: the file is written under a
/// temp name in the same directory, synced, and renamed over `path`, so a
/// crash or a concurrent reader never sees a torn checkpoint. Returns false
/// on I/O failure, leaving any previous file at `path` intact.
bool SaveCheckpoint(const std::vector<NamedModule>& modules,
                    const std::string& path);

/// DeserializeCheckpoint from a file.
CheckpointResult LoadCheckpoint(const std::vector<NamedModule>& modules,
                                const std::string& path);

}  // namespace nn
}  // namespace dar

#endif  // DAR_NN_CHECKPOINT_H_

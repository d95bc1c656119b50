// Fuzz target for the snapshot loader: DecodeSnapshot must return a
// clean error — never crash, never trip ASan/UBSan, never allocate a
// corrupt length claim — for arbitrary input bytes.
//
// Almost every mutation breaks the trailing CRC-64, so each input is also
// decoded "re-sealed": with its last 8 bytes replaced by the checksum of
// the rest. That lets mutations reach the section payload codecs (server,
// degradation controller, registry, service) instead of stopping at the
// checksum.
//
// Built with -DZS_HAVE_LIBFUZZER under Clang this is a libFuzzer target;
// under other toolchains fuzz_driver.h supplies a main() that replays
// file corpora and runs a deterministic mutation loop over seed inputs.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/blob.h"
#include "recovery/snapshot.h"

namespace {

void DecodeAndRoundTrip(std::string_view bytes) {
  const auto decoded = zonestream::recovery::DecodeSnapshot(bytes);
  if (decoded.ok()) {
    // Round-trip accepted inputs: re-encoding a decoded snapshot must
    // itself decode.
    const std::string encoded =
        zonestream::recovery::EncodeSnapshot(*decoded);
    if (!zonestream::recovery::DecodeSnapshot(encoded).ok()) {
      __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  DecodeAndRoundTrip(bytes);
  if (size >= 8) {
    const std::string_view body = bytes.substr(0, size - 8);
    zonestream::common::BlobWriter resealed;
    for (const char c : body) resealed.PutU8(static_cast<uint8_t>(c));
    resealed.PutU64(zonestream::common::Crc64(body));
    DecodeAndRoundTrip(resealed.data());
  }
  return 0;
}

#ifndef ZS_HAVE_LIBFUZZER
#include "disk/presets.h"
#include "fault/fault_spec.h"
#include "fuzz_driver.h"
#include "server/media_server.h"
#include "workload/size_distribution.h"

namespace {

// A current-version snapshot carrying a server section whose fault
// injectors, retry ledger and degradation controller (degraded, with its
// transitions logged) are all live, so mutations explore deep decoder
// paths, not just the magic check.
std::string ServerSeed() {
  using namespace zonestream;
  server::MediaServerConfig config;
  config.num_disks = 2;
  config.per_disk_stream_limit = 12;
  config.seed = 7;
  auto faults = fault::ParseFaultSpec(
      "slowdown:prob=1,delay_min=0.08,delay_max=0.08,from=5,until=40");
  if (!faults.ok()) __builtin_trap();
  config.faults = *faults;
  config.degradation_bound = 0.05;
  config.max_fragment_retries = 1;
  auto server = server::MediaServer::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), config);
  if (!server.ok()) __builtin_trap();
  const auto sizes = std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 1e10));
  for (int i = 0; i < 24; ++i) (void)server->OpenStream(sizes, i % 2);
  server->RunRounds(30);
  recovery::Snapshot snapshot;
  snapshot.meta.round = 30;
  snapshot.meta.base_seed = config.seed;
  snapshot.meta.producer = "fuzz";
  snapshot.server = server->ExportState();
  return recovery::EncodeSnapshot(snapshot);
}

}  // namespace

int main(int argc, char** argv) {
  zonestream::recovery::Snapshot snapshot;
  snapshot.meta.round = 41;
  snapshot.meta.base_seed = 7;
  snapshot.meta.producer = "fuzz";
  snapshot.app_sections["app.fuzz"] = std::string("\x00\x01payload", 9);
  return zonestream::fuzz::RunStandaloneDriver(
      argc, argv,
      {zonestream::recovery::EncodeSnapshot(snapshot), ServerSeed()});
}
#endif

// Pins the generator's output: a CRC-32C over the CSV serialization of
// seeded streams from every model. The generator's internal stores (vertex
// and edge indexes, adjacency lists) may change layout, but never the
// stream they produce, so these values must not move without a deliberate
// change to a model or to the random number generator. Both emission paths,
// Generate() and the threaded GenerateTo(), must give the pinned values.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/crc32.h"
#include "generator/event_consumer.h"
#include "generator/models/blockchain_model.h"
#include "generator/models/ddos_model.h"
#include "generator/models/event_mix_model.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"

namespace graphtides {
namespace {

constexpr size_t kRounds = 50000;

struct Pinned {
  uint64_t seed;
  size_t events;
  uint32_t crc;
};

/// CRC-32C over the CSV lines of every event it consumes.
class CrcConsumer final : public EventConsumer {
 public:
  Status Consume(Event&& event) override {
    line_.clear();
    AppendEventLine(event, &line_);
    crc_ = Crc32cUpdate(crc_, line_);
    ++events_;
    return Status::OK();
  }

  uint32_t crc() const { return crc_; }
  size_t events() const { return events_; }

 private:
  std::string line_;
  uint32_t crc_ = 0;
  size_t events_ = 0;
};

/// Generates `kRounds` rounds from a fresh model and checks the event count
/// and the CRC-32C of the stream's CSV lines, once through Generate() and
/// once through GenerateTo(), whose engine runs on its own thread.
void ExpectPinned(const std::function<std::unique_ptr<GeneratorModel>()>& make,
                  const Pinned& pinned) {
  StreamGeneratorOptions options;
  options.seed = pinned.seed;
  options.rounds = kRounds;
  options.marker_interval = 1000;

  std::unique_ptr<GeneratorModel> model = make();
  auto stream = StreamGenerator(model.get(), options).Generate();
  ASSERT_TRUE(stream.ok()) << stream.status();
  std::string csv;
  for (const Event& e : stream->events) AppendEventLine(e, &csv);
  EXPECT_EQ(stream->events.size(), pinned.events) << "seed " << pinned.seed;
  EXPECT_EQ(Crc32c(csv), pinned.crc) << "seed " << pinned.seed;

  std::unique_ptr<GeneratorModel> streamed_model = make();
  CrcConsumer consumer;
  auto summary =
      StreamGenerator(streamed_model.get(), options).GenerateTo(consumer);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->total_events, pinned.events) << "seed " << pinned.seed;
  EXPECT_EQ(consumer.events(), pinned.events) << "seed " << pinned.seed;
  EXPECT_EQ(consumer.crc(), pinned.crc) << "seed " << pinned.seed;
}

TEST(StreamGoldenTest, SocialNetworkModel) {
  auto make = [] { return std::make_unique<SocialNetworkModel>(); };
  ExpectPinned(make, {7, 50449, 3137154247u});
  ExpectPinned(make, {1234, 50444, 4163835912u});
}

TEST(StreamGoldenTest, EventMixModel) {
  // saturate-csv's options, scaled to kRounds.
  auto make = [] {
    EventMixModelOptions mix;
    mix.ba = {kRounds / 20, kRounds / 400, 5};
    return std::make_unique<EventMixModel>(mix);
  };
  ExpectPinned(make, {7, 65040, 4250719337u});
  ExpectPinned(make, {1234, 65033, 2173672773u});
}

TEST(StreamGoldenTest, BlockchainModel) {
  auto make = [] { return std::make_unique<BlockchainModel>(); };
  ExpectPinned(make, {7, 50152, 995512204u});
  ExpectPinned(make, {1234, 50152, 3097195432u});
}

TEST(StreamGoldenTest, DdosModel) {
  auto make = [] {
    DdosModelOptions options;
    options.attacks = {{10000, 20000}};
    return std::make_unique<DdosModel>(options);
  };
  ExpectPinned(make, {7, 50460, 1493781255u});
  ExpectPinned(make, {1234, 50460, 2643478413u});
}

}  // namespace
}  // namespace graphtides

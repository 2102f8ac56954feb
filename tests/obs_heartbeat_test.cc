/**
 * @file
 * Heartbeat tests: the act.heartbeat.v1 codec round-trips, the writer
 * is interval-gated and atomic, directory scanning finds and sorts
 * sidecars (skipping garbage), and the `act status` fleet table
 * renders a golden layout from canned heartbeats (time is passed in,
 * so the render is reproducible).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "config/json.h"
#include "obs/heartbeat.h"

namespace {

using namespace act;

class HeartbeatTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        directory_ = "obs_heartbeat_test_dir";
        std::filesystem::remove_all(directory_);
        std::filesystem::create_directory(directory_);
    }

    void TearDown() override { std::filesystem::remove_all(directory_); }

    std::string
    path(const std::string &name) const
    {
        return directory_ + "/" + name;
    }

    std::string directory_;
};

obs::Heartbeat
sampleHeartbeat()
{
    obs::Heartbeat heartbeat;
    heartbeat.domain = "cpa_montecarlo";
    heartbeat.shard_index = 1;
    heartbeat.shard_count = 3;
    heartbeat.items_done = 4096;
    heartbeat.items_total = 10000;
    heartbeat.chunks_done = 2;
    heartbeat.chunks_total = 5;
    heartbeat.items_per_sec = 81920.0;
    heartbeat.rss_mb = 24.5;
    heartbeat.start_wall_s = 1000.0;
    heartbeat.update_wall_s = 1012.5;
    heartbeat.done = false;
    return heartbeat;
}

TEST_F(HeartbeatTest, JsonRoundTrip)
{
    const obs::Heartbeat heartbeat = sampleHeartbeat();
    const obs::Heartbeat parsed =
        obs::heartbeatFromJson(obs::toJson(heartbeat));
    EXPECT_EQ(parsed.domain, heartbeat.domain);
    EXPECT_EQ(parsed.shard_index, heartbeat.shard_index);
    EXPECT_EQ(parsed.shard_count, heartbeat.shard_count);
    EXPECT_EQ(parsed.items_done, heartbeat.items_done);
    EXPECT_EQ(parsed.items_total, heartbeat.items_total);
    EXPECT_EQ(parsed.chunks_done, heartbeat.chunks_done);
    EXPECT_EQ(parsed.chunks_total, heartbeat.chunks_total);
    EXPECT_EQ(parsed.items_per_sec, heartbeat.items_per_sec);
    EXPECT_EQ(parsed.rss_mb, heartbeat.rss_mb);
    EXPECT_EQ(parsed.start_wall_s, heartbeat.start_wall_s);
    EXPECT_EQ(parsed.update_wall_s, heartbeat.update_wall_s);
    EXPECT_EQ(parsed.done, heartbeat.done);
    EXPECT_DOUBLE_EQ(parsed.fractionDone(), 0.4096);
}

TEST_F(HeartbeatTest, RejectsWrongFormat)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        obs::heartbeatFromJson(config::JsonValue::parse("{}")),
        ::testing::ExitedWithCode(1), "not a heartbeat document");
}

TEST_F(HeartbeatTest, PathDerivation)
{
    EXPECT_EQ(obs::heartbeatPathFor("out/part0.json"),
              "out/part0.heartbeat.json");
    EXPECT_EQ(obs::heartbeatPathFor("partial"),
              "partial.heartbeat.json");
}

TEST_F(HeartbeatTest, WriterGatesOnIntervalAndForcedWritesLand)
{
    const std::string file = path("shard.heartbeat.json");
    // An hour-long interval: only forced writes can land.
    obs::HeartbeatWriter writer(file, 3600.0);

    obs::Heartbeat heartbeat = sampleHeartbeat();
    writer.beat(heartbeat, /*force=*/true);
    obs::Heartbeat read = obs::heartbeatFromJson(
        config::loadJsonFile(file));
    EXPECT_EQ(read.items_done, 4096u);

    // Gated: this update must not reach the file, and due() says so
    // before the caller builds it.
    EXPECT_FALSE(writer.due());
    heartbeat.items_done = 9999;
    writer.beat(heartbeat);
    read = obs::heartbeatFromJson(config::loadJsonFile(file));
    EXPECT_EQ(read.items_done, 4096u);

    // Forced final write skips the gate.
    heartbeat.done = true;
    writer.beat(heartbeat, /*force=*/true);
    read = obs::heartbeatFromJson(config::loadJsonFile(file));
    EXPECT_EQ(read.items_done, 9999u);
    EXPECT_TRUE(read.done);

    // The temp file never survives a completed write.
    EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));

    // A zero interval is always due.
    EXPECT_TRUE(obs::HeartbeatWriter(file, 0.0).due());
}

TEST_F(HeartbeatTest, DirectoryScanSortsAndSkipsGarbage)
{
    obs::Heartbeat heartbeat = sampleHeartbeat();
    heartbeat.shard_index = 1;
    obs::HeartbeatWriter(path("b.heartbeat.json"), 0.0)
        .beat(heartbeat, true);
    heartbeat.shard_index = 0;
    obs::HeartbeatWriter(path("a.heartbeat.json"), 0.0)
        .beat(heartbeat, true);

    // Non-heartbeat, unparseable and mistyped files must be ignored,
    // and so must counts that are negative, fractional or out of
    // integer range.
    std::ofstream(path("result.json")) << "{\"format\": \"other\"}\n";
    std::ofstream(path("junk.heartbeat.json")) << "not json{";
    std::ofstream(path("mistyped.heartbeat.json"))
        << "{\"format\":\"act.heartbeat.v1\",\"shard_index\":\"x\"}\n";
    std::ofstream(path("negative.heartbeat.json"))
        << "{\"format\":\"act.heartbeat.v1\",\"shard_index\":-1}\n";
    std::ofstream(path("fractional.heartbeat.json"))
        << "{\"format\":\"act.heartbeat.v1\",\"chunks_done\":1.5}\n";
    std::ofstream(path("huge.heartbeat.json"))
        << "{\"format\":\"act.heartbeat.v1\",\"items_total\":1e300}\n";

    const auto heartbeats = obs::loadHeartbeatDirectory(directory_);
    ASSERT_EQ(heartbeats.size(), 2u);
    EXPECT_EQ(heartbeats[0].second.shard_index, 0u);
    EXPECT_EQ(heartbeats[1].second.shard_index, 1u);
}

TEST_F(HeartbeatTest, ProcessRssIsAvailableOnLinux)
{
#if defined(__linux__)
    EXPECT_GT(obs::processRssMb(), 0.0);
#else
    GTEST_SKIP() << "no /proc on this platform";
#endif
}

TEST_F(HeartbeatTest, FleetTableGoldenRender)
{
    // Four canned shards at now=1020, stale-after 15s: a finished
    // shard, a healthy runner, a straggler (progress below half the
    // live median), and a dead one (last update 100s ago).
    std::vector<std::pair<std::string, obs::Heartbeat>> fleet;

    obs::Heartbeat done;
    done.domain = "cpa_montecarlo";
    done.shard_index = 0;
    done.shard_count = 4;
    done.items_done = done.items_total = 2500;
    done.chunks_done = done.chunks_total = 3;
    done.items_per_sec = 250.0;
    done.rss_mb = 20.0;
    done.start_wall_s = 1000.0;
    done.update_wall_s = 1010.0;
    done.done = true;
    fleet.emplace_back("s0.heartbeat.json", done);

    obs::Heartbeat running = done;
    running.shard_index = 1;
    running.items_done = 2000;
    running.chunks_done = 2;
    running.update_wall_s = 1019.0;
    running.done = false;
    fleet.emplace_back("s1.heartbeat.json", running);

    obs::Heartbeat straggler = running;
    straggler.shard_index = 2;
    straggler.items_done = 250;
    straggler.chunks_done = 1;
    straggler.items_per_sec = 12.5;
    straggler.update_wall_s = 1018.0;
    fleet.emplace_back("s2.heartbeat.json", straggler);

    obs::Heartbeat dead = running;
    dead.shard_index = 3;
    dead.items_done = 500;
    dead.update_wall_s = 920.0;
    fleet.emplace_back("s3.heartbeat.json", dead);

    const std::string rendered =
        obs::renderFleetTable(fleet, 1020.0, 15.0);

    // Reproducible because the clock is a parameter: assert the
    // rendered states and the fleet summary line.
    EXPECT_NE(rendered.find("done"), std::string::npos);
    EXPECT_NE(rendered.find("running"), std::string::npos);
    EXPECT_NE(rendered.find("straggler"), std::string::npos);
    EXPECT_NE(rendered.find("DEAD"), std::string::npos);
    EXPECT_NE(rendered.find("[##########] 100.0%"), std::string::npos);
    EXPECT_NE(rendered.find("[########..] 80.0%"), std::string::npos);
    EXPECT_NE(rendered.find("[#.........] 10.0%"), std::string::npos);
    EXPECT_NE(rendered.find("2500/2500"), std::string::npos);
    // ETA for the healthy runner: 500 items at 250/s.
    EXPECT_NE(rendered.find("2.0s"), std::string::npos);
    EXPECT_NE(
        rendered.find("fleet: 5250/10000 items (52.5%), 1 done, "
                      "2 live, 1 dead"),
        std::string::npos);

    // The same fleet rendered twice is byte-identical.
    EXPECT_EQ(rendered, obs::renderFleetTable(fleet, 1020.0, 15.0));
}

} // namespace

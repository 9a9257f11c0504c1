#include "node/filesystem.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "node/machine.hpp"

namespace storm::node {
namespace {

using net::BufferPlace;
using sim::SimTime;
using sim::Task;
using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

// Figure 6: read bandwidth of a 12 MB image per filesystem/placement.
struct Fig6Cell {
  FsKind kind;
  BufferPlace place;
  double mb_per_s;
};

// Prints the case as its test-ID suffix: CMake's test discovery puts
// the printed value in place of the gtest index, so the ctest name
// reads "/nfs_nic" rather than the struct's raw bytes, padding included.
void PrintTo(const Fig6Cell& c, std::ostream* os) {
  *os << (c.kind == FsKind::Nfs         ? "nfs"
          : c.kind == FsKind::LocalDisk ? "localdisk"
                                        : "ramdisk")
      << (c.place == BufferPlace::NicMemory ? "_nic" : "_main");
}

class Figure6Read : public ::testing::TestWithParam<Fig6Cell> {};

TEST_P(Figure6Read, BandwidthMatchesPaper) {
  const auto& cell = GetParam();
  sim::Simulator sim;
  NfsServer nfs(sim);
  Machine m(sim, 0, MachineParams{}, nullptr, &nfs);
  SimTime done = SimTime::zero();
  const sim::Bytes bytes = 12_MB;
  auto t = [&]() -> Task<> {
    co_await m.fs(cell.kind).read(bytes, cell.place, nullptr);
    done = sim.now();
  };
  sim.spawn(t());
  sim.run();
  const double mbps = static_cast<double>(bytes) / 1e6 / done.to_seconds();
  // Within 5% of the paper's figure (per-op latency costs a little).
  EXPECT_NEAR(mbps, cell.mb_per_s, cell.mb_per_s * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, Figure6Read,
    ::testing::Values(
        Fig6Cell{FsKind::Nfs, BufferPlace::NicMemory, 11.4},
        Fig6Cell{FsKind::Nfs, BufferPlace::MainMemory, 11.2},
        Fig6Cell{FsKind::LocalDisk, BufferPlace::NicMemory, 31.5},
        Fig6Cell{FsKind::LocalDisk, BufferPlace::MainMemory, 30.5},
        Fig6Cell{FsKind::RamDisk, BufferPlace::NicMemory, 120.0},
        Fig6Cell{FsKind::RamDisk, BufferPlace::MainMemory, 218.0}));

TEST(Filesystem, RamDiskMainMemoryBeatsNicMemory) {
  // The crux of the Section 3.3.1 placement argument.
  sim::Simulator sim;
  Machine m(sim, 0, MachineParams{}, nullptr, nullptr);
  SimTime t_main = SimTime::zero(), t_nic = SimTime::zero();
  auto t = [&]() -> Task<> {
    SimTime t0 = sim.now();
    co_await m.fs(FsKind::RamDisk).read(12_MB, BufferPlace::MainMemory, nullptr);
    t_main = sim.now() - t0;
    t0 = sim.now();
    co_await m.fs(FsKind::RamDisk).read(12_MB, BufferPlace::NicMemory, nullptr);
    t_nic = sim.now() - t0;
  };
  sim.spawn(t());
  sim.run();
  EXPECT_LT(t_main, t_nic);
}

TEST(Filesystem, NfsServerSharedByConcurrentClients) {
  // Two machines demand-paging from the same NFS server: the server
  // pipe is wide enough here, so per-client protocol limits dominate;
  // with 16 clients the server (90 MB/s) becomes the bottleneck.
  sim::Simulator sim;
  NfsServer nfs(sim);
  std::vector<std::unique_ptr<Machine>> machines;
  for (int i = 0; i < 16; ++i)
    machines.push_back(
        std::make_unique<Machine>(sim, i, MachineParams{}, nullptr, &nfs));
  int finished = 0;
  SimTime last = SimTime::zero();
  auto reader = [&](int i) -> Task<> {
    co_await machines[i]->fs(FsKind::Nfs).read(12_MB, BufferPlace::MainMemory,
                                               nullptr);
    ++finished;
    last = sim.now();
  };
  for (int i = 0; i < 16; ++i) sim.spawn(reader(i));
  sim.run();
  EXPECT_EQ(finished, 16);
  // 16 clients * 12 MiB = 201 MB through a 90 MB/s server: >= 2.2 s,
  // i.e. well above the single-client 1.12 s — the nonscalability the
  // paper attributes to shared-filesystem distribution.
  EXPECT_GT(last.to_seconds(), 2.0);
}

TEST(Filesystem, WriteIsCpuWorkOnWriter) {
  sim::Simulator sim;
  Machine m(sim, 0, MachineParams{}, nullptr, nullptr);
  Proc& writer = m.os().create("nm", 0);
  SimTime done = SimTime::zero();
  auto t = [&]() -> Task<> {
    co_await m.fs(FsKind::RamDisk).write(4_MB, writer);
    done = sim.now();
  };
  sim.spawn(t());
  sim.run();
  // 4 MiB at 400 MB/s ~ 10.5 ms, charged as CPU time.
  EXPECT_NEAR(done.to_millis(), 10.5, 1.0);
  EXPECT_GT(writer.cpu_time().to_millis(), 9.0);
}

TEST(Filesystem, WriteContendsWithCpuLoad) {
  sim::Simulator sim;
  MachineParams mp;
  mp.os.cpus = 1;
  Machine m(sim, 0, mp, nullptr, nullptr);
  Proc& writer = m.os().create("nm", 0);
  Proc& spinner = m.os().create("spin", 0);
  SimTime done = SimTime::zero();
  auto spin = [&]() -> Task<> { co_await spinner.compute(1000_sec); };
  auto t = [&]() -> Task<> {
    co_await sim.delay(1_ms);
    co_await m.fs(FsKind::RamDisk).write(4_MB, writer);
    done = sim.now();
  };
  sim.spawn(spin());
  sim.spawn(t());
  sim.run(5_sec);
  // Sharing one CPU with a spinner: much slower than the 10.5 ms
  // uncontended write.
  EXPECT_GT(done.to_millis(), 20.0);
}

TEST(Filesystem, HelperAssistLengthensLoadedChunkedReads) {
  // The launch protocol reads the image 512 KB at a time; unloaded,
  // each chunk's helper cost overlaps the DMA, but when the helper's
  // CPU is saturated the per-chunk dispatch waits dominate and the
  // read slows down markedly.
  sim::Simulator sim;
  MachineParams mp;
  mp.os.cpus = 1;
  Machine m(sim, 0, mp, nullptr, nullptr);
  Proc& helper = m.os().create("helper", 0);
  Proc& spinner = m.os().create("spin", 0);
  SimTime t_quiet = SimTime::zero(), t_loaded = SimTime::zero();
  constexpr int kChunks = 24;  // 12 MB in 512 KB chunks
  auto read_all = [&]() -> Task<> {
    for (int i = 0; i < kChunks; ++i) {
      co_await m.fs(FsKind::RamDisk).read(512_KB, BufferPlace::MainMemory,
                                          &helper);
    }
  };
  auto spin = [&]() -> Task<> { co_await spinner.compute(1000_sec); };
  auto t = [&]() -> Task<> {
    SimTime t0 = sim.now();
    co_await read_all();
    t_quiet = sim.now() - t0;
    sim.spawn(spin());
    co_await sim.delay(1_ms);
    t0 = sim.now();
    co_await read_all();
    t_loaded = sim.now() - t0;
  };
  sim.spawn(t());
  sim.run(60_sec);
  EXPECT_GT(t_loaded.to_seconds(), t_quiet.to_seconds() * 1.3);
}

TEST(Filesystem, ZeroByteOpsComplete) {
  sim::Simulator sim;
  Machine m(sim, 0, MachineParams{}, nullptr, nullptr);
  Proc& w = m.os().create("w", 0);
  bool done = false;
  auto t = [&]() -> Task<> {
    co_await m.fs(FsKind::RamDisk).read(0, BufferPlace::MainMemory, nullptr);
    co_await m.fs(FsKind::RamDisk).write(0, w);
    done = true;
  };
  sim.spawn(t());
  sim.run();
  EXPECT_TRUE(done);
}

TEST(FsKindNames, ToString) {
  EXPECT_EQ(to_string(FsKind::Nfs), "NFS");
  EXPECT_EQ(to_string(FsKind::LocalDisk), "Local (ext2)");
  EXPECT_EQ(to_string(FsKind::RamDisk), "RAM (ext2)");
}

}  // namespace
}  // namespace storm::node

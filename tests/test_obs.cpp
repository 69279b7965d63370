/**
 * @file
 * Tests for the observability subsystem (src/obs): ring semantics,
 * the metric section a traced run exports, the span-vs-counter
 * exactness invariant, export determinism, the JSON validator, and the
 * .ptrace round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/summary.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_ring.hpp"
#include "obs/tracer.hpp"
#include "sim/resource.hpp"
#include "workload/trace_gen.hpp"

using namespace press;

namespace {

obs::TraceEvent
ev(sim::Tick tick, std::uint64_t arg = 0)
{
    obs::TraceEvent e;
    e.tick = tick;
    e.arg = arg;
    e.code = obs::Ev::CommSend;
    e.phase = obs::Phase::Instant;
    return e;
}

/** A small traced VIA cluster run (the workhorse for the export and
 *  cross-check tests). */
core::ClusterResults
tracedRun(std::uint32_t ring_capacity = 4096)
{
    workload::TraceSpec spec = workload::clarknetSpec();
    spec.numRequests = 6000;
    spec.numFiles = 800;
    static workload::Trace trace = workload::generateTrace(spec);

    core::PressConfig config;
    config.nodes = 4;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V5;
    config.trace = true;
    config.traceEventsPerNode = ring_capacity;

    core::PressCluster cluster(config, trace);
    return cluster.run();
}

} // namespace

TEST(TraceEvent, Is24BytesPacked)
{
    EXPECT_EQ(sizeof(obs::TraceEvent), 24u);
}

TEST(TraceEvent, PackKindBytesRoundTrips)
{
    std::uint64_t arg = obs::packKindBytes(7, 123456789);
    EXPECT_EQ(obs::unpackKind(arg), 7);
    EXPECT_EQ(obs::unpackBytes(arg), 123456789u);
}

TEST(TraceEvent, RequestIdEncodesNodeAndTag)
{
    std::uint32_t id = obs::requestId(3, 42);
    EXPECT_NE(id, 0u);          // 0 is reserved for "no request"
    EXPECT_EQ(id >> 24, 4u);    // node + 1
    EXPECT_EQ(id & 0xffffffu, 42u);
    EXPECT_NE(obs::requestId(0, 0), obs::requestId(1, 0));
}

TEST(TraceRing, RetainsEverythingBelowCapacity)
{
    obs::TraceRing ring(8);
    for (int i = 0; i < 5; ++i)
        ring.push(ev(i));
    EXPECT_EQ(ring.emitted(), 5u);
    EXPECT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring.dropped(), 0u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(ring.at(i).tick, static_cast<sim::Tick>(i));
}

TEST(TraceRing, WrapsAroundAtCapacity)
{
    obs::TraceRing ring(8);
    for (int i = 0; i < 20; ++i)
        ring.push(ev(i));
    EXPECT_EQ(ring.emitted(), 20u);
    EXPECT_EQ(ring.size(), 8u);     // capacity retained
    EXPECT_EQ(ring.dropped(), 12u); // oldest overwritten
    // at() walks oldest-first over the newest window: ticks 12..19.
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(ring.at(i).tick, static_cast<sim::Tick>(12 + i));
    std::vector<obs::TraceEvent> snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    EXPECT_EQ(snap.front().tick, 12);
    EXPECT_EQ(snap.back().tick, 19);
}

TEST(TraceRing, ExactlyAtCapacityDropsNothing)
{
    obs::TraceRing ring(8);
    for (int i = 0; i < 8; ++i)
        ring.push(ev(i));
    EXPECT_EQ(ring.size(), 8u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.at(0).tick, 0);
    EXPECT_EQ(ring.at(7).tick, 7);
    ring.push(ev(8)); // first overwrite
    EXPECT_EQ(ring.dropped(), 1u);
    EXPECT_EQ(ring.at(0).tick, 1);
    EXPECT_EQ(ring.at(7).tick, 8);
}

TEST(TraceRing, ClearKeepsCapacity)
{
    obs::TraceRing ring(4);
    for (int i = 0; i < 10; ++i)
        ring.push(ev(i));
    ring.clear();
    EXPECT_EQ(ring.emitted(), 0u);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.capacity(), 4u);
    ring.push(ev(99));
    EXPECT_EQ(ring.at(0).tick, 99);
}

TEST(Tracer, ProbeSpanBusyMatchesResourceCounters)
{
    sim::Simulator sim;
    sim::FifoResource cpu(sim, "cpu");
    obs::Tracer tracer(sim, 1, 64, {"service", "client-comm",
                                    "intra-comm", "other"});
    obs::ResourceProbe probe(tracer, 0, obs::ResourceProbe::Kind::Cpu);
    cpu.setListener(&probe);

    cpu.submit(10, 0);
    cpu.submit(25, 2);
    cpu.submit(7, 2);
    cpu.submit(3, 1);
    sim.run();

    // The invariant behind the Figure-1 cross-check: span-derived busy
    // time equals the resource's own category counters exactly.
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(tracer.spanBusy(0, c), cpu.busyTime(c))
            << "category " << c;
    EXPECT_EQ(tracer.spanBusy(0, 2), 32);

    // The ring saw Begin/End pairs plus depth counters.
    EXPECT_GT(tracer.ring(0).emitted(), 0u);
}

TEST(Tracer, SnapshotCarriesRingsAndAggregates)
{
    sim::Simulator sim;
    obs::Tracer tracer(sim, 2, 16, {"a", "b"});
    tracer.instant(0, obs::Ev::CommSend, 0, obs::packKindBytes(1, 100));
    tracer.instant(1, obs::Ev::CommRecv, 7, obs::packKindBytes(1, 100));
    tracer.addCpuSpan(0, 1, 500);

    obs::TraceData data = tracer.snapshot();
    EXPECT_EQ(data.nodes, 2u);
    ASSERT_EQ(data.events.size(), 2u);
    EXPECT_EQ(data.events[0].size(), 1u);
    EXPECT_EQ(data.events[1].size(), 1u);
    EXPECT_EQ(data.events[1][0].req, 7u);
    EXPECT_EQ(data.spanBusy[0][1], 500);
    EXPECT_EQ(data.counterBusy[0][1], 0); // caller fills this in
    ASSERT_EQ(data.categories.size(), 2u);
    EXPECT_EQ(data.categories[1], "b");
    EXPECT_TRUE(data.metrics.empty()); // caller fills this in too
}

TEST(ValidateJson, AcceptsWellFormedDocuments)
{
    for (const char *good :
         {"{}", "[]", "null", "true", "-1.5e3",
          R"({"a":[1,2,{"b":null}],"c":"x\nyA"})",
          R"([{"ts":0.001,"ph":"B"},{"ts":1,"ph":"E"}])"}) {
        std::string error;
        EXPECT_TRUE(obs::validateJson(good, &error))
            << good << ": " << error;
    }
}

TEST(ValidateJson, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru",
          "\"unterminated", "{} garbage", "[1] [2]", "+1",
          "{\"a\":1,}", "nan"}) {
        std::string error;
        EXPECT_FALSE(obs::validateJson(bad, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(TracedCluster, CrossCheckPassesAndExportsValidate)
{
    core::ClusterResults r = tracedRun();
    ASSERT_TRUE(r.trace);
    const obs::TraceData &data = *r.trace;
    EXPECT_EQ(data.nodes, 4u);

    std::ostringstream diag;
    EXPECT_TRUE(obs::crossCheck(data, &diag)) << diag.str();

    std::ostringstream json;
    obs::writeChromeTrace(json, data);
    std::string error;
    EXPECT_TRUE(obs::validateJson(json.str(), &error)) << error;

    std::ostringstream summary;
    obs::writeSummary(summary, data);
    EXPECT_NE(summary.str().find("intra-comm"), std::string::npos);
}

TEST(TracedCluster, CrossCheckDetectsTampering)
{
    core::ClusterResults r = tracedRun();
    ASSERT_TRUE(r.trace);
    obs::TraceData data = *r.trace;
    data.counterBusy[2][1] += 1; // one lost nanosecond must be caught
    std::ostringstream diag;
    EXPECT_FALSE(obs::crossCheck(data, &diag));
    EXPECT_NE(diag.str().find("node"), std::string::npos);
}

TEST(TracedCluster, RerunsAreByteIdentical)
{
    core::ClusterResults a = tracedRun();
    core::ClusterResults b = tracedRun();
    ASSERT_TRUE(a.trace && b.trace);

    std::ostringstream ja, jb;
    obs::writeChromeTrace(ja, *a.trace);
    obs::writeChromeTrace(jb, *b.trace);
    EXPECT_EQ(ja.str(), jb.str());

    std::ostringstream pa, pb;
    obs::writeTrace(pa, *a.trace);
    obs::writeTrace(pb, *b.trace);
    EXPECT_EQ(pa.str(), pb.str());
}

TEST(TracedCluster, MetricRowsMirrorTheAlwaysOnCounters)
{
    workload::TraceSpec spec = workload::clarknetSpec();
    spec.numRequests = 6000;
    spec.numFiles = 800;
    workload::Trace trace = workload::generateTrace(spec);

    for (core::Protocol protocol :
         {core::Protocol::ViaClan, core::Protocol::TcpFastEthernet}) {
        core::PressConfig config;
        config.nodes = 4;
        config.protocol = protocol;
        config.version = core::Version::V5;
        config.trace = true;
        core::PressCluster cluster(config, trace);
        core::ClusterResults r = cluster.run();
        ASSERT_TRUE(r.trace);
        const auto &rows = r.trace->metrics;

        bool via = protocol == core::Protocol::ViaClan;
        SCOPED_TRACE(via ? "VIA-V5" : "TCP/FE");
        std::vector<std::string> names = {
            "comm.stalls",      "comm.tx.bytes",    "comm.tx.msgs",
            "server.forwards",  "server.replies",   "server.requests",
            "cpu.queue_depth",  "disk.queue_depth", "disk.read_ns",
            "server.latency_ns"};
        if (!via)
            names.erase(names.begin()); // only VIA has credit windows
        auto counter = [&cluster](const std::string &name, int i) {
            const auto &s = cluster.server(i).stats();
            const auto &tx = cluster.comm(i).txStats();
            osnode::Node &node = cluster.node(i);
            if (name == "comm.stalls")
                return tx.stalls;
            if (name == "comm.tx.bytes")
                return tx.total().bytes;
            if (name == "comm.tx.msgs")
                return tx.total().msgs;
            if (name == "server.forwards")
                return s.forwardedOut;
            if (name == "server.replies")
                return s.replies;
            if (name == "server.requests")
                return s.requests;
            if (name == "cpu.queue_depth")
                return std::uint64_t{node.cpu().maxDepth()};
            if (name == "disk.queue_depth")
                return std::uint64_t{node.disk().resource().maxDepth()};
            if (name == "disk.read_ns")
                return node.disk().reads();
            return s.latencyHist.count(); // server.latency_ns
        };

        const int n = config.nodes;
        ASSERT_EQ(rows.size(), names.size() * (n + 1));
        for (std::size_t k = 0; k < names.size(); ++k) {
            const std::string &name = names[k];
            bool peak = name.ends_with("queue_depth");
            std::uint64_t total = 0;
            for (int i = 0; i <= n; ++i) {
                const obs::MetricSample &m = rows[k * (n + 1) + i];
                EXPECT_EQ(m.name, name);
                if (i == n) {
                    // The cluster row: the sum, or the max for a
                    // high-water mark.
                    EXPECT_EQ(m.node, -1) << name;
                    EXPECT_EQ(m.value, total) << name;
                    break;
                }
                EXPECT_EQ(m.node, i) << name;
                EXPECT_EQ(m.value, counter(name, i))
                    << name << " node " << i;
                total = peak ? std::max(total, m.value) : total + m.value;
            }
        }
        // The cluster rows agree with the run's results.
        auto cluster_row = [&](const std::string &name) {
            auto k = std::find(names.begin(), names.end(), name) -
                     names.begin();
            return rows[k * (n + 1) + n].value;
        };
        EXPECT_EQ(cluster_row("comm.tx.msgs"), r.comm.total().msgs);
        EXPECT_EQ(cluster_row("server.replies"), r.requestsMeasured);
        if (via) {
            // The run does stall, so the stall path is covered.
            EXPECT_GT(r.comm.stalls, 0u);
            EXPECT_EQ(cluster_row("comm.stalls"), r.comm.stalls);
        }
    }
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    core::ClusterResults r = tracedRun(512);
    ASSERT_TRUE(r.trace);
    const obs::TraceData &data = *r.trace;

    std::ostringstream out;
    obs::writeTrace(out, data);
    std::string bytes = out.str();

    obs::TraceData back;
    std::istringstream in(bytes);
    std::string error;
    ASSERT_TRUE(obs::readTrace(in, back, &error)) << error;

    EXPECT_EQ(back.nodes, data.nodes);
    EXPECT_EQ(back.categories, data.categories);
    EXPECT_EQ(back.emitted, data.emitted);
    EXPECT_EQ(back.spanBusy, data.spanBusy);
    EXPECT_EQ(back.counterBusy, data.counterBusy);
    ASSERT_EQ(back.events.size(), data.events.size());
    for (std::size_t n = 0; n < data.events.size(); ++n) {
        ASSERT_EQ(back.events[n].size(), data.events[n].size());
        for (std::size_t i = 0; i < data.events[n].size(); ++i) {
            EXPECT_EQ(back.events[n][i].tick, data.events[n][i].tick);
            EXPECT_EQ(back.events[n][i].arg, data.events[n][i].arg);
            EXPECT_EQ(back.events[n][i].req, data.events[n][i].req);
            EXPECT_EQ(back.events[n][i].code, data.events[n][i].code);
        }
    }
    ASSERT_EQ(back.metrics.size(), data.metrics.size());
    for (std::size_t i = 0; i < data.metrics.size(); ++i) {
        EXPECT_EQ(back.metrics[i].name, data.metrics[i].name);
        EXPECT_EQ(back.metrics[i].node, data.metrics[i].node);
        EXPECT_EQ(back.metrics[i].value, data.metrics[i].value);
    }

    // Re-serializing the parsed data reproduces the bytes exactly.
    std::ostringstream again;
    obs::writeTrace(again, back);
    EXPECT_EQ(again.str(), bytes);
}

TEST(TraceIo, RejectsCorruptStreams)
{
    std::string error;
    obs::TraceData data;
    {
        std::istringstream empty("");
        EXPECT_FALSE(obs::readTrace(empty, data, &error));
    }
    {
        std::istringstream junk("not a ptrace file at all");
        EXPECT_FALSE(obs::readTrace(junk, data, &error));
        EXPECT_FALSE(error.empty());
    }
    {
        // Valid magic, truncated body.
        std::string bytes = "PTRC";
        std::istringstream truncated(bytes);
        EXPECT_FALSE(obs::readTrace(truncated, data, &error));
    }
    {
        // A 32-byte file whose one node claims 2^28 events, then EOF:
        // the reader must fail on the first missing event, not reserve
        // 6 GiB or read on past the end.
        std::ostringstream os;
        auto put = [&os](std::uint64_t v, int bytes) {
            for (int i = 0; i < bytes; ++i)
                os.put(static_cast<char>(v >> (8 * i)));
        };
        put(obs::kTraceMagic, 4);
        put(obs::kTraceVersion, 4);
        put(1, 4);        // nodes
        put(0, 4);        // categories
        put(0, 8);        // node 0: emitted
        put(1u << 28, 8); // node 0: event count
        ASSERT_EQ(os.str().size(), 32u);
        std::istringstream huge(os.str());
        EXPECT_FALSE(obs::readTrace(huge, data, &error));
        EXPECT_FALSE(error.empty());
    }
}

TEST(TracingOff, NoTracerAndNoTraceData)
{
    workload::TraceSpec spec = workload::clarknetSpec();
    spec.numRequests = 2000;
    spec.numFiles = 400;
    workload::Trace trace = workload::generateTrace(spec);

    core::PressConfig config;
    config.nodes = 2;
    config.trace = false;
    core::PressCluster cluster(config, trace);
    EXPECT_EQ(cluster.tracer(), nullptr);
    core::ClusterResults r = cluster.run();
    EXPECT_FALSE(r.trace);
    EXPECT_GT(r.throughput, 0.0);
}

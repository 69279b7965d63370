/**
 * @file
 * Using the VIA library directly: connect two Virtual Interfaces,
 * measure ping-pong latency for regular sends and remote memory
 * writes, and streamed bandwidth — the microbenchmarks every user-level
 * communication paper starts with (cf. Section 3.2's 9 us / 102 MB/s
 * cLAN numbers).
 *
 * Usage: via_pingpong [iterations]
 */

#include <cstdlib>
#include <iostream>

#include "net/payload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "via/via_nic.hpp"

using namespace press;

namespace {

/** Round-trip a regular send @p iters times; returns one-way us. */
double
pingPongRegular(std::uint64_t bytes, int iters)
{
    sim::Simulator sim;
    net::Fabric fabric(sim, net::FabricConfig::clan(), 2);
    via::ViaNic na(sim, fabric, 0), nb(sim, fabric, 1);
    auto *va = na.createVi();
    auto *vb = nb.createVi();
    via::ViaNic::connect(*va, *vb);
    auto ma = na.registerMemory(1 << 20);
    auto mb = nb.registerMemory(1 << 20);

    // Ping-pong: alternate send directions as messages land, driving
    // the simulator one event at a time.
    int remaining = iters;
    va->postSend(via::makeSend(ma.base, bytes));
    vb->postRecv(via::makeRecv(mb.base, 1 << 20));
    bool a_turn = false;
    while (remaining > 0) {
        if (!sim.step())
            break;
        if (!a_turn && vb->pollRecv()) {
            --remaining;
            if (remaining == 0)
                break;
            va->postRecv(via::makeRecv(ma.base, 1 << 20));
            vb->postSend(via::makeSend(mb.base, bytes));
            a_turn = true;
        } else if (a_turn && va->pollRecv()) {
            --remaining;
            if (remaining == 0)
                break;
            vb->postRecv(via::makeRecv(mb.base, 1 << 20));
            va->postSend(via::makeSend(ma.base, bytes));
            a_turn = false;
        }
    }
    return static_cast<double>(sim.now()) / 1000.0 / iters;
}

/** Stream @p count RMW writes of @p bytes; returns MB/s. */
double
rmwStream(std::uint64_t bytes, int count)
{
    sim::Simulator sim;
    net::Fabric fabric(sim, net::FabricConfig::clan(), 2);
    via::ViaNic na(sim, fabric, 0), nb(sim, fabric, 1);
    auto *va = na.createVi();
    auto *vb = nb.createVi();
    via::ViaNic::connect(*va, *vb);
    auto ma = na.registerMemory(1 << 20);
    std::uint64_t landed = 0;
    auto mb = nb.registerMemory(
        1 << 20, [&](std::uint64_t, std::uint64_t len,
                     const via::Payload &) {
            landed += len;
        });
    for (int i = 0; i < count; ++i)
        va->postSend(via::makeRdmaWrite(ma.base, bytes, mb.base));
    sim.run();
    return static_cast<double>(landed) / sim::nsToSeconds(sim.now()) /
           1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    int iters = argc > 1 ? static_cast<int>(util::cliParseInt(
                               argv[1], "iters", 1, 1 << 30))
                         : 1000;

    std::cout << "VIA microbenchmarks over the simulated cLAN "
                 "(paper: 9 us 4-byte latency, 102 MB/s at 32 KB)\n\n";

    util::TextTable t;
    t.header({"size", "send/recv one-way us", "RMW stream MB/s"});
    for (std::uint64_t bytes : {4ull, 64ull, 1024ull, 8192ull, 32000ull}) {
        t.row({std::to_string(bytes) + " B",
               util::fmtF(pingPongRegular(bytes, iters), 2),
               util::fmtF(rmwStream(bytes, iters), 1)});
    }
    std::cout << t.render();
    return 0;
}

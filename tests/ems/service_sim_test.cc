/** @file Queueing simulator tests (Figure 6 infrastructure). */

#include <gtest/gtest.h>

#include <string>

#include "ems/service_sim.hh"

namespace hypertee
{
namespace
{

ServiceSimParams
quiet(unsigned cores)
{
    ServiceSimParams p;
    p.emsCores = cores;
    p.obfuscation = false;
    p.transportOverhead = 100'000;
    return p;
}

TEST(ServiceSim, SingleClientLatencyIsServicePlusTransport)
{
    EmsServiceSim sim(quiet(1));
    sim.addClient("c", 3, [](std::uint64_t) { return Tick(1'000'000); });
    sim.run();
    for (Tick lat : sim.latencies("c"))
        EXPECT_EQ(lat, 1'100'000u);
}

TEST(ServiceSim, QueueingDelaysSecondClientOnOneServer)
{
    EmsServiceSim sim(quiet(1));
    sim.addClient("a", 1, [](std::uint64_t) { return Tick(5'000'000); });
    sim.addClient("b", 1, [](std::uint64_t) { return Tick(1'000'000); });
    sim.run();
    EXPECT_EQ(sim.latencies("a").at(0), 5'100'000u);
    EXPECT_EQ(sim.latencies("b").at(0), 6'100'000u)
        << "b waits behind a";
}

TEST(ServiceSim, TwoServersServeConcurrently)
{
    EmsServiceSim sim(quiet(2));
    sim.addClient("a", 1, [](std::uint64_t) { return Tick(5'000'000); });
    sim.addClient("b", 1, [](std::uint64_t) { return Tick(1'000'000); });
    sim.run();
    EXPECT_EQ(sim.latencies("b").at(0), 1'100'000u)
        << "no serialization with a second EMS core";
}

/** "c<i>", appended rather than prepended to the number's string. */
std::string
clientName(int i)
{
    std::string name = "c";
    name += std::to_string(i);
    return name;
}

TEST(ServiceSim, MoreServersImproveTailLatency)
{
    auto p99 = [](unsigned cores) {
        EmsServiceSim sim(quiet(cores));
        for (int c = 0; c < 8; ++c) {
            sim.addClient(clientName(c), 50,
                          [](std::uint64_t) { return Tick(2'000'000); });
        }
        sim.run();
        std::vector<Tick> all;
        for (int c = 0; c < 8; ++c) {
            const auto &l = sim.latencies(clientName(c));
            all.insert(all.end(), l.begin(), l.end());
        }
        std::sort(all.begin(), all.end());
        return all[all.size() * 99 / 100];
    };

    EXPECT_GT(p99(1), p99(2));
    EXPECT_GE(p99(2), p99(4));
}

TEST(ServiceSim, ClosedLoopIssuesAllRequests)
{
    EmsServiceSim sim(quiet(2));
    sim.addClient("c", 100, [](std::uint64_t) { return Tick(10'000); });
    sim.run();
    EXPECT_EQ(sim.latencies("c").size(), 100u);
}

TEST(ServiceSim, ObfuscationAddsJitter)
{
    ServiceSimParams p = quiet(1);
    p.obfuscation = true;
    p.jitterMax = 500'000;
    EmsServiceSim sim(p);
    sim.addClient("c", 50, [](std::uint64_t) { return Tick(1'000'000); });
    sim.run();
    std::set<Tick> distinct(sim.latencies("c").begin(),
                            sim.latencies("c").end());
    EXPECT_GT(distinct.size(), 20u);
}

TEST(ServiceSimDeath, UnknownClientPanics)
{
    EmsServiceSim sim(quiet(1));
    sim.addClient("c", 1, [](std::uint64_t) { return Tick(1); });
    sim.run();
    EXPECT_DEATH(sim.latencies("nope"), "no such client");
}

} // namespace
} // namespace hypertee

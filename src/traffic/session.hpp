/**
 * @file
 * HTTP/1.1 keep-alive sessions for the open-loop traffic engine.
 *
 * The paper charges every request a full connection setup inside the
 * HTTP-processing cost mu_p [T5]. Real browsers reuse connections:
 * a session arrives, issues a geometric number of requests separated
 * by think time, and pays TCP establishment once. SessionModel
 * supplies the per-session draws — length and think gaps — as pure
 * counter-based functions of (seed, session id, request index), so
 * session shaping is deterministic and independent of arrival timing.
 *
 * The cost asymmetry the model exposes: requests after the first skip
 * Calibration::service.connSetup on the server CPU and the TCP
 * handshake bytes on the external wire (see PressCluster::issueRequest
 * and PressServer::handleClientRequest).
 */

#ifndef PRESS_TRAFFIC_SESSION_HPP
#define PRESS_TRAFFIC_SESSION_HPP

#include <cstdint>

#include "sim/time.hpp"
#include "util/units.hpp"

namespace press::traffic {

/** Mean requests per keep-alive session (geometric lengths). The
 *  arrival curve always describes the *request* rate: with sessions
 *  on, session arrivals are thinned by 1/SessionMeanRequests so the
 *  offered request rate still matches the curve. */
inline constexpr double SessionMeanRequests = 8.0;

/** Clamp on one session's length. */
inline constexpr std::uint32_t SessionMaxRequests = 128;

/** Mean of the exponential think gap between a session's requests. */
inline constexpr sim::Tick SessionThinkMean = 2 * util::MS;

/** Keep-alive session shaping; disabled = one connection per request. */
struct SessionSpec {
    bool enabled = false;
};

/** Counter-based per-session draws. */
class SessionModel
{
  public:
    explicit SessionModel(std::uint64_t seed);

    /** Requests in session @p session, in [1, SessionMaxRequests]. */
    std::uint32_t length(std::uint64_t session) const;

    /** Think gap before request @p index (1-based) of @p session. */
    sim::Tick thinkGap(std::uint64_t session, std::uint32_t index) const;

  private:
    std::uint64_t _seed;
};

} // namespace press::traffic

#endif // PRESS_TRAFFIC_SESSION_HPP

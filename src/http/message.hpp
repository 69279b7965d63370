/**
 * @file
 * HTTP/1.x request and response handling.
 *
 * PRESS is a web server: what arrives from clients are HTTP GET
 * requests and what leaves are HTTP responses. The simulation carries
 * real request/response text so the server's parse step (the paper's
 * mu_p) operates on genuine messages, and so trace_server/quickstart
 * exercise the same code a network-facing build would.
 *
 * Scope: the subset of RFC 1945/2616 a static-content server needs —
 * request line, common headers, status lines, Content-Length/Type,
 * Connection handling. No chunked encoding (static files have known
 * sizes).
 */

#ifndef PRESS_HTTP_MESSAGE_HPP
#define PRESS_HTTP_MESSAGE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace press::http {

/** Request methods the server understands. */
enum class Method {
    Get,
    Head,
    Unknown,
};

const char *methodName(Method m);

/** HTTP protocol version. */
struct Version {
    int major = 1;
    int minor = 0;

    bool
    operator==(const Version &o) const
    {
        return major == o.major && minor == o.minor;
    }
};

/** One header field. Names compare case-insensitively. */
struct Header {
    std::string name;
    std::string value;
};

/** Parse failure modes. */
enum class ParseError {
    BadRequestLine,   ///< malformed METHOD SP PATH SP VERSION
    BadVersion,       ///< not HTTP/x.y
    BadHeader,        ///< header line without a colon
    IncompleteInput,  ///< no terminating blank line
};

/** A parsed HTTP request. */
struct Request {
    Method method = Method::Unknown;
    std::string target;  ///< raw request target (path + query)
    Version version;
    std::vector<Header> headers;

    /** Case-insensitive header lookup; nullopt when absent. */
    std::optional<std::string_view>
    header(std::string_view name) const;

    /** True when the connection should stay open after the response
     *  (HTTP/1.1 default, or an explicit keep-alive). */
    bool keepAlive() const;

    /** Serialize back to wire format. */
    std::string serialize() const;
};

/** Either a request or the error that prevented parsing one. */
struct ParseResult {
    std::optional<Request> request;
    std::optional<ParseError> error;

    explicit operator bool() const { return request.has_value(); }
};

/**
 * Parse one request from @p text (headers must end with a blank line;
 * trailing body bytes are ignored — GET/HEAD carry none).
 */
ParseResult parseRequest(std::string_view text);

/** A response under construction. */
struct Response {
    int status = 200;
    Version version{1, 0};
    std::vector<Header> headers;
    std::uint64_t contentLength = 0; ///< body size (body not stored)

    /** Standard reason phrase for @p status ("OK", "Not Found", ...). */
    static const char *reason(int status);

    /** Serialize the status line + headers (no body). */
    std::string serializeHead() const;

    /** Total on-the-wire size: head + body. */
    std::uint64_t wireBytes() const;
};

/**
 * Build a static-content response: status line, Server, Content-Type,
 * Content-Length and Connection headers.
 */
Response makeFileResponse(int status, std::uint64_t content_length,
                          std::string_view content_type,
                          bool keep_alive);

/** Build a GET request for @p path (used by the client generators). */
Request makeGet(std::string_view path, std::string_view host,
                bool keep_alive = true);

} // namespace press::http

#endif // PRESS_HTTP_MESSAGE_HPP

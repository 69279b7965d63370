/**
 * @file
 * URL path handling: percent-decoding, query splitting, and dot-segment
 * normalization, so request targets resolve safely to site paths.
 */

#ifndef PRESS_HTTP_URL_HPP
#define PRESS_HTTP_URL_HPP

#include <optional>
#include <string>
#include <string_view>

namespace press::http {

/** A request target split into its components. */
struct SplitTarget {
    std::string path;  ///< decoded, normalized absolute path
    std::string query; ///< raw query string ("" when none)
};

/**
 * Percent-decode @p text. Returns nullopt on malformed escapes
 * ("%g1", truncated "%a"). '+' stays literal: it stands for a space
 * only in form-encoded query strings, never in a path (RFC 3986 §3.3).
 */
std::optional<std::string> percentDecode(std::string_view text);

/**
 * Normalize an absolute path: collapse "//", resolve "." and ".."
 * segments. Returns nullopt when ".." would escape the root (a
 * traversal attempt — the server must reject it).
 */
std::optional<std::string> normalizePath(std::string_view path);

/**
 * Full target processing: split off the query, percent-decode the path,
 * normalize it. Returns nullopt for malformed or escaping targets.
 */
std::optional<SplitTarget> splitTarget(std::string_view target);

} // namespace press::http

#endif // PRESS_HTTP_URL_HPP

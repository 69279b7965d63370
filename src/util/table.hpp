/**
 * @file
 * Fixed-width text-table formatting used by the benchmark binaries to print
 * rows in the same layout as the paper's tables and figure series.
 */

#ifndef PRESS_UTIL_TABLE_HPP
#define PRESS_UTIL_TABLE_HPP

#include <string>
#include <vector>

namespace press::util {

/**
 * A simple left/right aligned text table. Columns are sized to the widest
 * cell. Numeric-looking cells are right-aligned.
 */
class TextTable
{
  public:
    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row. */
    void row(std::vector<std::string> cells);

    /** Append a horizontal separator line. */
    void separator();

    /** Render the whole table, including a rule below the header. */
    std::string render() const;

    /** Render as RFC-4180-ish CSV (separators skipped, cells quoted
     *  when they contain commas/quotes/newlines). */
    std::string renderCsv() const;

  private:
    std::vector<std::string> _header;
    // A row with the single magic cell "\x01" renders as a separator.
    std::vector<std::vector<std::string>> _rows;
};

/** Format a double with @p digits decimal places. */
std::string fmtF(double v, int digits = 1);

/** Format a double as a percentage ("12.3%"). */
std::string fmtPct(double fraction, int digits = 1);

/** Format a change as a signed percentage ("+12.3%", "-5.0%"). */
std::string fmtSignedPct(double fraction, int digits = 1);

/** Format an integer with thousands separators ("2,978,121"). */
std::string fmtInt(long long v);

} // namespace press::util

#endif // PRESS_UTIL_TABLE_HPP

#include "common/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/log.hh"

namespace ccm
{

TextTable::TextTable(std::vector<std::string> column_headers)
    : headers(std::move(column_headers))
{
    if (headers.empty())
        ccm_fatal("TextTable needs at least one column");
}

std::size_t
TextTable::addRow(const std::string &label)
{
    body.emplace_back(headers.size());
    body.back()[0] = label;
    return body.size() - 1;
}

void
TextTable::set(std::size_t row, std::size_t col, const std::string &v)
{
    if (row >= body.size() || col >= headers.size())
        ccm_panic("TextTable cell (", row, ",", col, ") out of range");
    body[row][col] = v;
}

void
TextTable::setNum(std::size_t row, std::size_t col, double v,
                  int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    set(row, col, os.str());
}

const std::string &
TextTable::header(std::size_t col) const
{
    if (col >= headers.size())
        ccm_panic("TextTable header ", col, " out of range");
    return headers[col];
}

const std::string &
TextTable::cell(std::size_t row, std::size_t col) const
{
    if (row >= body.size() || col >= headers.size())
        ccm_panic("TextTable cell (", row, ",", col, ") out of range");
    return body[row][col];
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> width(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c) {
        width[c] = headers[c].size();
        for (const auto &row : body)
            width[c] = std::max(width[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            if (c == 0)
                os << std::left;
            else
                os << std::right;
            os << std::setw(static_cast<int>(width[c])) << row[c];
        }
        os << "\n";
    };

    print_row(headers);
    std::vector<std::string> rule(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        rule[c] = std::string(width[c], '-');
    print_row(rule);
    for (const auto &row : body)
        print_row(row);
}

} // namespace ccm

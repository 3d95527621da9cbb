#include "record/csv.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/file.h"
#include "common/strings.h"

namespace topkdup::record {

StatusOr<std::vector<std::string>> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      if (!cur.empty()) {
        return Status::InvalidArgument(
            StrFormat("quote inside unquoted field at column %zu", i));
      }
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field");
  }
  fields.push_back(std::move(cur));
  return fields;
}

std::string FormatCsvLine(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(',');
    const std::string& f = fields[i];
    const bool needs_quotes =
        f.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes) {
      out.append(f);
      continue;
    }
    out.push_back('"');
    for (char c : f) {
      if (c == '"') out.push_back('"');
      out.push_back(c);
    }
    out.push_back('"');
  }
  return out;
}

namespace {

/// One parsed row plus the 1-based line it started on, for error context.
struct CsvRow {
  size_t line = 1;
  std::vector<std::string> cols;
};

/// Character-level CSV parser handling quoted fields that span lines.
/// Returns one row per record; a trailing newline does not create an
/// empty row. Every error names the 1-based line and column (byte offset
/// within the line) where it was detected.
StatusOr<std::vector<CsvRow>> ParseCsvContent(const std::string& content,
                                              const std::string& name,
                                              const CsvLimits& limits) {
  std::vector<CsvRow> rows;
  CsvRow row;
  std::string cur;
  bool in_quotes = false;
  bool cur_was_quoted = false;
  bool row_has_content = false;
  size_t line = 1;
  size_t col = 1;
  size_t quote_line = 0;  // Where the open quoted field started.
  size_t quote_col = 0;
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (c == '\0') {
      return Status::InvalidArgument(
          StrFormat("%s: line %zu column %zu: embedded NUL byte",
                    name.c_str(), line, col));
    }
    if (cur.size() >= limits.max_field_bytes) {
      return Status::ResourceExhausted(StrFormat(
          "%s: line %zu column %zu: field exceeds %zu bytes", name.c_str(),
          line, col, limits.max_field_bytes));
    }
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < content.size() && content[i + 1] == '"') {
          cur.push_back('"');
          ++i;
          col += 2;
        } else {
          in_quotes = false;
          ++col;
        }
      } else {
        cur.push_back(c);
        if (c == '\n') {
          ++line;
          col = 1;
        } else {
          ++col;
        }
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!cur.empty()) {
          return Status::InvalidArgument(
              StrFormat("%s: line %zu column %zu: quote inside unquoted "
                        "field",
                        name.c_str(), line, col));
        }
        if (!row_has_content) row.line = line;
        in_quotes = true;
        cur_was_quoted = true;
        row_has_content = true;
        quote_line = line;
        quote_col = col;
        ++col;
        break;
      case ',':
        if (!row_has_content) row.line = line;
        row.cols.push_back(std::move(cur));
        cur.clear();
        cur_was_quoted = false;
        row_has_content = true;
        ++col;
        break;
      case '\r':
        ++col;  // Tolerate CRLF.
        break;
      case '\n':
        if (row_has_content || !cur.empty() || cur_was_quoted) {
          row.cols.push_back(std::move(cur));
          cur.clear();
          rows.push_back(std::move(row));
          row = CsvRow{};
          row_has_content = false;
          cur_was_quoted = false;
        }
        ++line;
        col = 1;
        break;
      default:
        if (!row_has_content) row.line = line;
        cur.push_back(c);
        row_has_content = true;
        ++col;
        break;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument(
        StrFormat("%s: line %zu column %zu: unterminated quoted field",
                  name.c_str(), quote_line, quote_col));
  }
  if (row_has_content || !cur.empty()) {
    row.cols.push_back(std::move(cur));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

StatusOr<Dataset> ReadCsvFromString(const std::string& content,
                                    const std::string& name,
                                    const CsvLimits& limits) {
  TOPKDUP_ASSIGN_OR_RETURN(std::vector<CsvRow> rows,
                           ParseCsvContent(content, name, limits));
  if (rows.empty()) {
    return Status::InvalidArgument("empty CSV input: " + name);
  }
  const std::vector<std::string>& header = rows.front().cols;

  int weight_col = -1;
  int entity_col = -1;
  std::vector<std::string> field_names;
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "__weight__") {
      weight_col = static_cast<int>(i);
    } else if (header[i] == "__entity__") {
      entity_col = static_cast<int>(i);
    } else {
      field_names.push_back(header[i]);
    }
  }

  Dataset data{Schema(std::move(field_names))};
  for (size_t row_no = 1; row_no < rows.size(); ++row_no) {
    std::vector<std::string>& cols = rows[row_no].cols;
    const size_t row_line = rows[row_no].line;
    if (cols.size() != header.size()) {
      return Status::InvalidArgument(
          StrFormat("%s: line %zu: expected %zu columns, got %zu",
                    name.c_str(), row_line, header.size(), cols.size()));
    }
    Record rec;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (static_cast<int>(i) == weight_col) {
        char* end = nullptr;
        rec.weight = std::strtod(cols[i].c_str(), &end);
        if (end == cols[i].c_str() || *end != '\0') {
          return Status::InvalidArgument(StrFormat(
              "%s: line %zu: __weight__ value \"%s\" is not a number",
              name.c_str(), row_line, cols[i].c_str()));
        }
      } else if (static_cast<int>(i) == entity_col) {
        char* end = nullptr;
        rec.entity_id = std::strtoll(cols[i].c_str(), &end, 10);
        if (end == cols[i].c_str() || *end != '\0') {
          return Status::InvalidArgument(StrFormat(
              "%s: line %zu: __entity__ value \"%s\" is not an integer",
              name.c_str(), row_line, cols[i].c_str()));
        }
      } else {
        rec.fields.push_back(std::move(cols[i]));
      }
    }
    data.Add(std::move(rec));
  }
  TOPKDUP_RETURN_IF_ERROR(data.Validate());
  return data;
}

StatusOr<Dataset> ReadCsv(const std::string& path, const CsvLimits& limits) {
  StatusOr<std::string> content = ReadFileToString(path);
  if (!content.ok()) {
    // A missing file is an I/O failure to CSV callers.
    return Status::IOError(content.status().message());
  }
  return ReadCsvFromString(content.value(), path, limits);
}

Status WriteCsv(const Dataset& data, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open for write: " + path);
  }
  std::vector<std::string> header = data.schema().field_names();
  header.push_back("__weight__");
  header.push_back("__entity__");
  out << FormatCsvLine(header) << "\n";
  for (const Record& r : data.records()) {
    std::vector<std::string> cols = r.fields;
    std::ostringstream w;
    w << r.weight;
    cols.push_back(w.str());
    cols.push_back(std::to_string(r.entity_id));
    out << FormatCsvLine(cols) << "\n";
  }
  if (!out.good()) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace topkdup::record

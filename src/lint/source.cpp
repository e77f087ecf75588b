#include "lint/source.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dynvote::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Pull every `dvlint: marker[, marker...]` out of one comment's text.
void harvest_markers(std::string_view comment, std::vector<std::string>& out) {
  static constexpr std::string_view kTag = "dvlint:";
  std::size_t at = comment.find(kTag);
  if (at == std::string_view::npos) return;
  std::size_t pos = at + kTag.size();
  while (pos < comment.size()) {
    while (pos < comment.size() &&
           (comment[pos] == ' ' || comment[pos] == ',')) {
      ++pos;
    }
    const std::size_t start = pos;
    int parens = 0;
    while (pos < comment.size()) {
      const char c = comment[pos];
      if (c == '(') ++parens;
      if (c == ')') {
        if (parens == 0) break;
        --parens;
      }
      if (parens == 0 && (c == ' ' || c == ',' || c == '\n')) break;
      ++pos;
    }
    if (pos > start) out.emplace_back(comment.substr(start, pos - start));
    // One `dvlint:` introduces one comma-separated marker list; a space
    // after a complete marker ends it (prose may follow).
    if (pos >= comment.size() || comment[pos] != ',') break;
  }
}

}  // namespace

std::size_t SourceFile::line_of(std::size_t offset) const {
  offset = std::min(offset, text.size());
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(offset),
                            '\n'));
}

bool SourceFile::has_annotation(std::size_t line,
                                std::string_view marker) const {
  if (line == 0 || line > annotations.size()) return false;
  for (const std::string& m : annotations[line - 1]) {
    std::string_view got = m;
    // "transient(config)" matches marker "transient".
    if (const std::size_t paren = got.find('(');
        paren != std::string_view::npos) {
      if (got.substr(0, paren) == marker) return true;
    }
    if (got == marker) return true;
  }
  return false;
}

SourceFile load_source(const std::string& abs_path, std::string rel_path) {
  std::ifstream in(abs_path, std::ios::binary);
  if (!in) throw std::runtime_error("dvlint: cannot read " + abs_path);
  std::ostringstream buf;
  buf << in.rdbuf();

  SourceFile file;
  file.rel_path = std::move(rel_path);
  file.text = std::move(buf).str();
  file.code = file.text;
  const std::size_t line_count =
      1 + static_cast<std::size_t>(
              std::count(file.text.begin(), file.text.end(), '\n'));
  file.annotations.resize(line_count);

  // Per-line scratch: markers found in comments on that line, and whether
  // the line held nothing but comment/whitespace (then markers also cover
  // the next line).
  std::vector<std::vector<std::string>> line_markers(line_count);
  std::vector<bool> line_has_code(line_count, false);

  std::string& code = file.code;
  const std::string& text = file.text;
  std::size_t line = 0;  // 0-based while scanning
  std::size_t i = 0;
  const std::size_t n = text.size();

  auto blank = [&](std::size_t at) {
    if (code[at] != '\n') code[at] = ' ';
  };

  // Length of the optional encoding prefix plus `R` when a raw string
  // literal (`R"delim(...)delim"`, possibly `u8R`/`uR`/`UR`/`LR`) starts at
  // `at`; 0 otherwise.  The returned count excludes the opening quote.
  auto raw_prefix_len = [&](std::size_t at) -> std::size_t {
    std::size_t p = at;
    if (p < n && (text[p] == 'u' || text[p] == 'U' || text[p] == 'L')) {
      if (text[p] == 'u' && p + 1 < n && text[p + 1] == '8') ++p;
      ++p;
    }
    if (p >= n || text[p] != 'R') return 0;
    ++p;
    if (p >= n || text[p] != '"') return 0;
    return p - at;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      // A `//` comment, including backslash-continued follow-on lines (the
      // continuation swallows the next physical line into the comment).
      const std::size_t start = i;
      const std::size_t first_line = line;
      while (i < n) {
        if (text[i] == '\n') {
          if (text[i - 1] != '\\') break;
          ++line;
          ++i;
          continue;
        }
        blank(i++);
      }
      harvest_markers(std::string_view(text).substr(start, i - start),
                      line_markers[first_line]);
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const std::size_t start = i;
      blank(i++);
      blank(i++);
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        blank(i++);
      }
      if (i + 1 < n) {
        blank(i++);
        blank(i++);
      }
      harvest_markers(std::string_view(text).substr(start, i - start),
                      line_markers[std::min(line, line_count - 1)]);
      continue;
    }
    if (c == '#' && !line_has_code[line]) {
      // Preprocessor directive.  All directives are blanked (continuation
      // aware) except #include, whose quoted path the include scanner reads
      // back out of `code`.
      std::size_t d = i + 1;
      while (d < n && (text[d] == ' ' || text[d] == '\t')) ++d;
      const bool is_include = text.compare(d, 7, "include") == 0;
      line_has_code[line] = true;
      if (!is_include) {
        while (i < n) {
          if (text[i] == '\n') {
            if (text[i - 1] != '\\') break;
            ++line;
            ++i;
            continue;
          }
          blank(i++);
        }
        continue;
      }
      ++i;
      continue;
    }
    if ((c == 'R' || c == 'u' || c == 'U' || c == 'L') &&
        (i == 0 || !ident_char(text[i - 1]))) {
      if (const std::size_t pre = raw_prefix_len(i); pre != 0) {
        // Raw string literal: find the matching `)delim"` and blank the
        // whole literal, prefix and quotes included, preserving newlines.
        line_has_code[line] = true;
        const std::size_t quote = i + pre;  // index of the opening '"'
        std::size_t d = quote + 1;
        while (d < n && text[d] != '(' && text[d] != '"' && text[d] != '\n' &&
               d - quote <= 17) {
          ++d;
        }
        if (d < n && text[d] == '(') {
          std::string close_seq = ")";
          close_seq += text.substr(quote + 1, d - quote - 1);
          close_seq += '"';
          std::size_t end = text.find(close_seq, d + 1);
          end = end == std::string::npos ? n : end + close_seq.size();
          while (i < end) {
            if (text[i] == '\n') ++line;
            blank(i++);
          }
          continue;
        }
      }
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      line_has_code[line] = true;
      blank(i++);
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) blank(i++);
        if (text[i] == '\n') ++line;  // unterminated literal; keep lines sane
        blank(i++);
      }
      if (i < n) blank(i++);
      continue;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) line_has_code[line] = true;
    ++i;
  }

  for (std::size_t l = 0; l < line_count; ++l) {
    for (const std::string& m : line_markers[l]) {
      file.annotations[l].push_back(m);
      // A comment-only line annotates the following line too.
      if (!line_has_code[l] && l + 1 < line_count) {
        file.annotations[l + 1].push_back(m);
      }
    }
  }
  return file;
}

std::vector<Token> tokenize(std::string_view code) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  const std::size_t n = code.size();
  while (i < n) {
    const char c = code[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (ident_char(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(code[i])) ++i;
      tokens.push_back(Token{code.substr(start, i - start), start});
      continue;
    }
    if (c == ':' && i + 1 < n && code[i + 1] == ':') {
      tokens.push_back(Token{code.substr(i, 2), i});
      i += 2;
      continue;
    }
    tokens.push_back(Token{code.substr(i, 1), i});
    ++i;
  }
  return tokens;
}

}  // namespace dynvote::lint

// Structural extraction over preprocessed sources for dvlint.
//
// This is deliberately not a C++ parser: it is a brace-and-token scanner
// tuned to the shapes this repository (and the fixture corpus) actually
// uses -- class bodies with inline methods, out-of-line `Class::method`
// definitions.  Where real parsing would be needed the checks fail safe
// (no finding) rather than guess.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lint/source.hpp"

namespace dynvote::lint {

struct MethodBody {
  std::string name;
  /// Byte range of the body in SourceFile::code, braces excluded.
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t line = 0;  // line of the opening brace
};

struct ClassDecl {
  std::string name;
};

struct IncludeDirective {
  std::string path;  // quoted form only; angle includes are ignored
  std::size_t line = 0;
};

struct ParsedFile {
  const SourceFile* source = nullptr;
  std::vector<IncludeDirective> includes;
  std::vector<ClassDecl> classes;
  /// Out-of-line definitions: (class name, method) -> body spans.
  std::map<std::pair<std::string, std::string>, std::vector<MethodBody>>
      out_of_line;
  /// In-class (inline) method bodies: same keying.
  std::map<std::pair<std::string, std::string>, std::vector<MethodBody>>
      inline_bodies;
};

ParsedFile parse_file(const SourceFile& source);

/// Find the offset of the matching close brace for the open brace at
/// `open` (which must index a '{' in `code`); npos when unbalanced.
std::size_t match_brace(std::string_view code, std::size_t open);

}  // namespace dynvote::lint

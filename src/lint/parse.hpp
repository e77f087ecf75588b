// Structural extraction over preprocessed sources for dvlint.
//
// This is deliberately not a C++ parser: it is a brace-and-token scanner
// tuned to the shapes this repository (and the fixture corpus) actually
// uses -- one declaration per line, trailing-underscore members, out-of-line
// `Class::method` definitions.  Where real parsing would be needed the
// checks fail safe (no finding) rather than guess.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/source.hpp"

namespace dynvote::lint {

struct FieldDecl {
  std::string name;
  std::size_t line = 0;
  /// Declared with an unordered_map/unordered_set type (directly or via a
  /// local `using` alias).
  bool unordered = false;
};

struct MethodBody {
  std::string name;
  /// Byte range of the body in SourceFile::code, braces excluded.
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t line = 0;  // line of the opening brace
};

struct ClassDecl {
  std::string name;
  /// Public base class names (identifier only, template args dropped).
  std::vector<std::string> bases;
  std::vector<FieldDecl> fields;
  /// Names of member functions *declared* in the class body.
  std::set<std::string> declared_methods;
  std::size_t line = 0;
};

struct IncludeDirective {
  std::string path;  // quoted form only; angle includes are ignored
  std::size_t line = 0;
};

/// One `for (decl : expr)` statement.
struct RangeFor {
  std::size_t line = 0;
  /// Last identifier of the range expression -- the container name for the
  /// common `for (x : container)` / `for (x : obj.member_)` shapes.
  std::string container;
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
  /// Variable names declared with an unordered container type in this
  /// file (members, locals, parameters), for the iteration check.
  std::set<std::string> unordered_names;
  std::vector<RangeFor> range_fors;
};

ParsedFile parse_file(const SourceFile& source);

/// Find the offset of the matching close brace for the open brace at
/// `open` (which must index a '{' in `code`); npos when unbalanced.
std::size_t match_brace(std::string_view code, std::size_t open);

}  // namespace dynvote::lint

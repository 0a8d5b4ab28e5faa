#include "engine/sql_parser.h"

#include <cstdlib>

#include "common/string_util.h"
#include "engine/sql_lexer.h"

namespace mip::engine {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SqlStatement> ParseStatement() {
    if (Peek().IsKeyword("select")) {
      MIP_ASSIGN_OR_RETURN(SelectStmt s, ParseSelect());
      MIP_RETURN_NOT_OK(ExpectEnd());
      return SqlStatement(std::move(s));
    }
    if (Peek().IsKeyword("explain")) {
      Next();
      ExplainStmt explain;
      MIP_ASSIGN_OR_RETURN(explain.select, ParseSelect());
      MIP_RETURN_NOT_OK(ExpectEnd());
      return SqlStatement(std::move(explain));
    }
    if (Peek().IsKeyword("create")) return ParseCreate();
    if (Peek().IsKeyword("insert")) return ParseInsert();
    if (Peek().IsKeyword("drop")) return ParseDrop();
    return ErrorHere("expected SELECT, EXPLAIN, CREATE, INSERT or DROP");
  }

  Result<ExprPtr> ParseStandaloneExpression() {
    MIP_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    MIP_RETURN_NOT_OK(ExpectEnd());
    return e;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Next() {
    const Token& t = Peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool AcceptSymbol(const char* s) {
    if (Peek().IsSymbol(s)) {
      Next();
      return true;
    }
    return false;
  }
  bool AcceptKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      Next();
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) {
      return Status::ParseError(std::string("expected '") + s + "' near '" +
                                Peek().text + "' (offset " +
                                std::to_string(Peek().position) + ")");
    }
    return Status::OK();
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Status::ParseError(std::string("expected ") + kw + " near '" +
                                Peek().text + "'");
    }
    return Status::OK();
  }
  Status ExpectEnd() {
    AcceptSymbol(";");
    if (Peek().type != TokenType::kEnd) {
      return Status::ParseError("unexpected trailing input near '" +
                                Peek().text + "'");
    }
    return Status::OK();
  }
  Status ErrorHere(const std::string& msg) const {
    return Status::ParseError(msg + " near '" + Peek().text + "' (offset " +
                              std::to_string(Peek().position) + ")");
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::ParseError("expected identifier near '" + Peek().text +
                                "'");
    }
    return Next().text;
  }

  // --- Expressions ---------------------------------------------------------

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    MIP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Peek().IsKeyword("or")) {
      Next();
      MIP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Binary(BinaryOp::kOr, lhs, rhs);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    MIP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Peek().IsKeyword("and")) {
      Next();
      MIP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Binary(BinaryOp::kAnd, lhs, rhs);
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (Peek().IsKeyword("not")) {
      Next();
      MIP_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Unary(UnaryOp::kNot, operand);
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    MIP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (Peek().IsKeyword("is")) {
      Next();
      const bool negated = AcceptKeyword("not");
      MIP_RETURN_NOT_OK(ExpectKeyword("null"));
      return Unary(negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull, lhs);
    }
    // [NOT] BETWEEN / IN / LIKE.
    bool negated = false;
    if (Peek().IsKeyword("not") &&
        (Peek(1).IsKeyword("between") || Peek(1).IsKeyword("in") ||
         Peek(1).IsKeyword("like"))) {
      Next();
      negated = true;
    }
    if (AcceptKeyword("between")) {
      MIP_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      MIP_RETURN_NOT_OK(ExpectKeyword("and"));
      MIP_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      ExprPtr range = And(Binary(BinaryOp::kGe, lhs, lo),
                          Binary(BinaryOp::kLe, lhs, hi));
      return negated ? Unary(UnaryOp::kNot, range) : range;
    }
    if (AcceptKeyword("in")) {
      MIP_RETURN_NOT_OK(ExpectSymbol("("));
      ExprPtr any;
      for (;;) {
        MIP_ASSIGN_OR_RETURN(ExprPtr item, ParseAdditive());
        ExprPtr match = Eq(lhs, item);
        any = any == nullptr ? match : Or(any, match);
        if (AcceptSymbol(")")) break;
        MIP_RETURN_NOT_OK(ExpectSymbol(","));
      }
      return negated ? Unary(UnaryOp::kNot, any) : any;
    }
    if (AcceptKeyword("like")) {
      MIP_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
      ExprPtr match = Call("like", {lhs, pattern});
      return negated ? Unary(UnaryOp::kNot, match) : match;
    }
    struct OpMap {
      const char* sym;
      BinaryOp op;
    };
    static const OpMap kOps[] = {{"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe},
                                 {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe},
                                 {"<", BinaryOp::kLt},  {">", BinaryOp::kGt}};
    for (const OpMap& m : kOps) {
      if (Peek().IsSymbol(m.sym)) {
        Next();
        MIP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return Binary(m.op, lhs, rhs);
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    MIP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    for (;;) {
      if (Peek().IsSymbol("+")) {
        Next();
        MIP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
        lhs = Binary(BinaryOp::kAdd, lhs, rhs);
      } else if (Peek().IsSymbol("-")) {
        Next();
        MIP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
        lhs = Binary(BinaryOp::kSub, lhs, rhs);
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    MIP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    for (;;) {
      BinaryOp op;
      if (Peek().IsSymbol("*")) {
        op = BinaryOp::kMul;
      } else if (Peek().IsSymbol("/")) {
        op = BinaryOp::kDiv;
      } else if (Peek().IsSymbol("%")) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      Next();
      MIP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Binary(op, lhs, rhs);
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (Peek().IsSymbol("-")) {
      Next();
      MIP_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      // Fold negation into numeric literals for cleaner plans.
      if (operand->kind == ExprKind::kLiteral) {
        if (operand->literal.kind() == Value::Kind::kInt) {
          return Lit(Value::Int(-operand->literal.int_value()));
        }
        if (operand->literal.kind() == Value::Kind::kDouble) {
          return Lit(Value::Double(-operand->literal.double_value()));
        }
      }
      return Unary(UnaryOp::kNeg, operand);
    }
    if (Peek().IsSymbol("+")) Next();
    return ParsePrimary();
  }

  static bool AggFromName(const std::string& lower, AggFunc* out) {
    if (lower == "count") {
      *out = AggFunc::kCount;
    } else if (lower == "sum") {
      *out = AggFunc::kSum;
    } else if (lower == "avg") {
      *out = AggFunc::kAvg;
    } else if (lower == "min") {
      *out = AggFunc::kMin;
    } else if (lower == "max") {
      *out = AggFunc::kMax;
    } else if (lower == "var_samp" || lower == "variance") {
      *out = AggFunc::kVarSamp;
    } else if (lower == "stddev_samp" || lower == "stddev") {
      *out = AggFunc::kStddevSamp;
    } else {
      return false;
    }
    return true;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger: {
        Next();
        return Lit(Value::Int(std::strtoll(t.text.c_str(), nullptr, 10)));
      }
      case TokenType::kFloat: {
        Next();
        return Lit(Value::Double(std::strtod(t.text.c_str(), nullptr)));
      }
      case TokenType::kString: {
        Next();
        return Lit(Value::String(t.text));
      }
      case TokenType::kIdentifier: {
        if (t.IsKeyword("true")) {
          Next();
          return Lit(Value::Bool(true));
        }
        if (t.IsKeyword("false")) {
          Next();
          return Lit(Value::Bool(false));
        }
        if (t.IsKeyword("null")) {
          Next();
          return Lit(Value::Null());
        }
        if (t.IsKeyword("case")) return ParseCase();
        if (t.IsKeyword("cast")) return ParseCast();
        const std::string name = Next().text;
        if (AcceptSymbol("(")) {
          // Aggregate or scalar function call.
          const std::string lower = ToLower(name);
          AggFunc agg;
          if (AggFromName(lower, &agg)) {
            if (agg == AggFunc::kCount && AcceptSymbol("*")) {
              MIP_RETURN_NOT_OK(ExpectSymbol(")"));
              return CountStar();
            }
            if (agg == AggFunc::kCount && AcceptKeyword("distinct")) {
              agg = AggFunc::kCountDistinct;
            }
            MIP_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            MIP_RETURN_NOT_OK(ExpectSymbol(")"));
            return Aggregate(agg, arg);
          }
          std::vector<ExprPtr> args;
          if (!AcceptSymbol(")")) {
            for (;;) {
              MIP_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(std::move(arg));
              if (AcceptSymbol(")")) break;
              MIP_RETURN_NOT_OK(ExpectSymbol(","));
            }
          }
          return Call(name, std::move(args));
        }
        // Optional table qualifier: "t.col" -> "col" (single-table dialect).
        if (AcceptSymbol(".")) {
          MIP_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
          return Col(col);
        }
        return Col(name);
      }
      case TokenType::kSymbol:
        if (t.IsSymbol("(")) {
          Next();
          MIP_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          MIP_RETURN_NOT_OK(ExpectSymbol(")"));
          return inner;
        }
        break;
      case TokenType::kEnd:
        break;
    }
    return ErrorHere("expected expression");
  }

  Result<ExprPtr> ParseCase() {
    MIP_RETURN_NOT_OK(ExpectKeyword("case"));
    std::vector<ExprPtr> args;
    if (!Peek().IsKeyword("when")) {
      return ErrorHere("only searched CASE (CASE WHEN ...) is supported");
    }
    while (AcceptKeyword("when")) {
      MIP_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      MIP_RETURN_NOT_OK(ExpectKeyword("then"));
      MIP_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      args.push_back(std::move(cond));
      args.push_back(std::move(value));
    }
    if (AcceptKeyword("else")) {
      MIP_ASSIGN_OR_RETURN(ExprPtr other, ParseExpr());
      args.push_back(std::move(other));
    }
    MIP_RETURN_NOT_OK(ExpectKeyword("end"));
    return CaseWhen(std::move(args));
  }

  Result<ExprPtr> ParseCast() {
    MIP_RETURN_NOT_OK(ExpectKeyword("cast"));
    MIP_RETURN_NOT_OK(ExpectSymbol("("));
    MIP_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
    MIP_RETURN_NOT_OK(ExpectKeyword("as"));
    MIP_ASSIGN_OR_RETURN(DataType type, ParseColumnType());
    MIP_RETURN_NOT_OK(ExpectSymbol(")"));
    const char* fn = "cast_double";
    switch (type) {
      case DataType::kInt64:
        fn = "cast_bigint";
        break;
      case DataType::kString:
        fn = "cast_varchar";
        break;
      case DataType::kBool:
      case DataType::kFloat64:
        fn = "cast_double";
        break;
    }
    return Call(fn, {operand});
  }

  // --- Statements ----------------------------------------------------------

  Result<SelectStmt> ParseSelect() {
    MIP_RETURN_NOT_OK(ExpectKeyword("select"));
    SelectStmt stmt;
    stmt.distinct = AcceptKeyword("distinct");
    for (;;) {
      SelectItem item;
      if (AcceptSymbol("*")) {
        item.star = true;
      } else {
        MIP_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("as")) {
          MIP_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
        } else if (Peek().type == TokenType::kIdentifier &&
                   !Peek().IsKeyword("from")) {
          // Bare alias.
          item.alias = Next().text;
        }
      }
      stmt.items.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    MIP_RETURN_NOT_OK(ExpectKeyword("from"));
    MIP_ASSIGN_OR_RETURN(stmt.from, ParseTableRef());

    if (AcceptKeyword("where")) {
      MIP_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (AcceptKeyword("group")) {
      MIP_RETURN_NOT_OK(ExpectKeyword("by"));
      for (;;) {
        MIP_ASSIGN_OR_RETURN(ExprPtr key, ParseExpr());
        stmt.group_by.push_back(std::move(key));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("having")) {
      MIP_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }
    if (AcceptKeyword("order")) {
      MIP_RETURN_NOT_OK(ExpectKeyword("by"));
      for (;;) {
        OrderItem item;
        MIP_ASSIGN_OR_RETURN(item.column, ExpectIdentifier());
        if (AcceptKeyword("desc")) {
          item.ascending = false;
        } else {
          AcceptKeyword("asc");
        }
        stmt.order_by.push_back(std::move(item));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("limit")) {
      if (Peek().type != TokenType::kInteger) {
        return ErrorHere("expected integer after LIMIT");
      }
      stmt.limit = std::strtoll(Next().text.c_str(), nullptr, 10);
    }
    return stmt;
  }

  Result<std::shared_ptr<TableRef>> ParseTableRef() {
    auto ref = std::make_shared<TableRef>();
    MIP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    if (AcceptSymbol("(")) {
      // Table function call with literal arguments.
      ref->kind = TableRef::Kind::kFunction;
      ref->func_name = name;
      if (!AcceptSymbol(")")) {
        for (;;) {
          MIP_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
          ref->func_args.push_back(std::move(v));
          if (AcceptSymbol(")")) break;
          MIP_RETURN_NOT_OK(ExpectSymbol(","));
        }
      }
      return ref;
    }
    ref->kind = TableRef::Kind::kNamed;
    ref->name = name;
    // Zero or more JOIN clauses, folded into a left-deep tree:
    // a JOIN b ON .. JOIN c ON ..  =>  Join(Join(a, b), c).
    for (;;) {
      bool left_join = false;
      if (Peek().IsKeyword("left")) {
        left_join = true;
        Next();
        AcceptKeyword("outer");
      } else if (Peek().IsKeyword("inner")) {
        Next();
      }
      if (!AcceptKeyword("join")) {
        if (left_join) return ErrorHere("expected JOIN after LEFT");
        return ref;
      }
      auto join = std::make_shared<TableRef>();
      join->kind = TableRef::Kind::kJoin;
      join->join_type = left_join ? JoinType::kLeft : JoinType::kInner;
      join->left = ref;
      auto right = std::make_shared<TableRef>();
      right->kind = TableRef::Kind::kNamed;
      MIP_ASSIGN_OR_RETURN(right->name, ExpectIdentifier());
      join->right = right;
      MIP_RETURN_NOT_OK(ExpectKeyword("on"));
      // ON [t.]a = [u.]b
      MIP_ASSIGN_OR_RETURN(std::string a, ExpectIdentifier());
      if (AcceptSymbol(".")) {
        MIP_ASSIGN_OR_RETURN(a, ExpectIdentifier());
      }
      MIP_RETURN_NOT_OK(ExpectSymbol("="));
      MIP_ASSIGN_OR_RETURN(std::string b, ExpectIdentifier());
      if (AcceptSymbol(".")) {
        MIP_ASSIGN_OR_RETURN(b, ExpectIdentifier());
      }
      join->left_key = a;
      join->right_key = b;
      ref = join;
    }
  }

  Result<Value> ParseLiteralValue() {
    bool negative = false;
    if (AcceptSymbol("-")) negative = true;
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger: {
        Next();
        const int64_t v = std::strtoll(t.text.c_str(), nullptr, 10);
        return Value::Int(negative ? -v : v);
      }
      case TokenType::kFloat: {
        Next();
        const double v = std::strtod(t.text.c_str(), nullptr);
        return Value::Double(negative ? -v : v);
      }
      case TokenType::kString:
        if (negative) return ErrorHere("cannot negate a string literal");
        Next();
        return Value::String(t.text);
      case TokenType::kIdentifier:
        if (negative) return ErrorHere("cannot negate this literal");
        if (t.IsKeyword("null")) {
          Next();
          return Value::Null();
        }
        if (t.IsKeyword("true")) {
          Next();
          return Value::Bool(true);
        }
        if (t.IsKeyword("false")) {
          Next();
          return Value::Bool(false);
        }
        break;
      default:
        break;
    }
    return ErrorHere("expected literal value");
  }

  Result<DataType> ParseColumnType() {
    MIP_ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier());
    const std::string lower = ToLower(type_name);
    if (lower == "bigint" || lower == "int" || lower == "integer") {
      return DataType::kInt64;
    }
    if (lower == "double" || lower == "real" || lower == "float") {
      // Optional "double precision".
      if (lower == "double") AcceptKeyword("precision");
      return DataType::kFloat64;
    }
    if (lower == "boolean" || lower == "bool") return DataType::kBool;
    if (lower == "varchar" || lower == "text" || lower == "string") {
      if (AcceptSymbol("(")) {  // varchar(n): length ignored
        Next();
        MIP_RETURN_NOT_OK(ExpectSymbol(")"));
      }
      return DataType::kString;
    }
    return Status::ParseError("unknown column type '" + type_name + "'");
  }

  Result<SqlStatement> ParseCreate() {
    MIP_RETURN_NOT_OK(ExpectKeyword("create"));
    if (AcceptKeyword("remote")) {
      MIP_RETURN_NOT_OK(ExpectKeyword("table"));
      CreateRemoteTableStmt stmt;
      MIP_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
      MIP_RETURN_NOT_OK(ExpectKeyword("on"));
      if (Peek().type != TokenType::kString) {
        return ErrorHere("expected quoted location after ON");
      }
      stmt.location = Next().text;
      stmt.remote_name = stmt.name;
      if (AcceptKeyword("as")) {
        MIP_ASSIGN_OR_RETURN(stmt.remote_name, ExpectIdentifier());
      }
      MIP_RETURN_NOT_OK(ExpectEnd());
      return SqlStatement(std::move(stmt));
    }
    if (AcceptKeyword("merge")) {
      MIP_RETURN_NOT_OK(ExpectKeyword("table"));
      CreateMergeTableStmt stmt;
      MIP_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
      MIP_RETURN_NOT_OK(ExpectSymbol("("));
      for (;;) {
        MIP_ASSIGN_OR_RETURN(std::string part, ExpectIdentifier());
        stmt.parts.push_back(std::move(part));
        if (AcceptSymbol(")")) break;
        MIP_RETURN_NOT_OK(ExpectSymbol(","));
      }
      MIP_RETURN_NOT_OK(ExpectEnd());
      return SqlStatement(std::move(stmt));
    }
    MIP_RETURN_NOT_OK(ExpectKeyword("table"));
    CreateTableStmt stmt;
    MIP_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
    MIP_RETURN_NOT_OK(ExpectSymbol("("));
    for (;;) {
      Field f;
      MIP_ASSIGN_OR_RETURN(f.name, ExpectIdentifier());
      MIP_ASSIGN_OR_RETURN(f.type, ParseColumnType());
      stmt.fields.push_back(std::move(f));
      if (AcceptSymbol(")")) break;
      MIP_RETURN_NOT_OK(ExpectSymbol(","));
    }
    MIP_RETURN_NOT_OK(ExpectEnd());
    return SqlStatement(std::move(stmt));
  }

  Result<SqlStatement> ParseInsert() {
    MIP_RETURN_NOT_OK(ExpectKeyword("insert"));
    MIP_RETURN_NOT_OK(ExpectKeyword("into"));
    InsertStmt stmt;
    MIP_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    MIP_RETURN_NOT_OK(ExpectKeyword("values"));
    for (;;) {
      MIP_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<Value> row;
      for (;;) {
        MIP_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        row.push_back(std::move(v));
        if (AcceptSymbol(")")) break;
        MIP_RETURN_NOT_OK(ExpectSymbol(","));
      }
      stmt.rows.push_back(std::move(row));
      if (!AcceptSymbol(",")) break;
    }
    MIP_RETURN_NOT_OK(ExpectEnd());
    return SqlStatement(std::move(stmt));
  }

  Result<SqlStatement> ParseDrop() {
    MIP_RETURN_NOT_OK(ExpectKeyword("drop"));
    MIP_RETURN_NOT_OK(ExpectKeyword("table"));
    DropTableStmt stmt;
    MIP_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
    MIP_RETURN_NOT_OK(ExpectEnd());
    return SqlStatement(std::move(stmt));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

bool IsReadOnlySql(const std::string& sql) {
  size_t i = sql.find_first_not_of(" \t\r\n");
  if (i == std::string::npos) return false;
  auto starts_with = [&](const char* kw) {
    for (size_t j = 0; kw[j] != '\0'; ++j) {
      if (i + j >= sql.size()) return false;
      const char c = sql[i + j];
      const char lower = c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c;
      if (lower != kw[j]) return false;
    }
    return true;
  };
  return starts_with("select") || starts_with("explain");
}

Result<SqlStatement> ParseSql(const std::string& sql) {
  MIP_ASSIGN_OR_RETURN(std::vector<Token> tokens, LexSql(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  MIP_ASSIGN_OR_RETURN(std::vector<Token> tokens, LexSql(text));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpression();
}

}  // namespace mip::engine

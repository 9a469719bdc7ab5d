#include "benchmarks/gcc/optimizer.h"

#include "support/check.h"

namespace alberta::gcc {

namespace {

/** Add, subtract and multiply wrap around in two's complement, as
 * 64-bit registers do; on std::int64_t an overflow would be undefined
 * behaviour, and generated programs overflow routinely. */
std::uint64_t
bits(std::int64_t value)
{
    return static_cast<std::uint64_t>(value);
}

} // namespace

std::int64_t
evalOp(Op op, std::int64_t lhs, std::int64_t rhs)
{
    switch (op) {
      case Op::Add: return static_cast<std::int64_t>(bits(lhs) + bits(rhs));
      case Op::Sub: return static_cast<std::int64_t>(bits(lhs) - bits(rhs));
      case Op::Mul: return static_cast<std::int64_t>(bits(lhs) * bits(rhs));
      case Op::Div:
        support::fatalIf(rhs == 0, "eval: division by zero");
        return lhs / rhs;
      case Op::Mod:
        support::fatalIf(rhs == 0, "eval: modulo by zero");
        return lhs % rhs;
      case Op::And: return lhs & rhs;
      case Op::Or: return lhs | rhs;
      case Op::Xor: return lhs ^ rhs;
      case Op::Shl: return lhs << (rhs & 63);
      case Op::Shr: return lhs >> (rhs & 63);
      case Op::Lt: return lhs < rhs;
      case Op::Gt: return lhs > rhs;
      case Op::Le: return lhs <= rhs;
      case Op::Ge: return lhs >= rhs;
      case Op::Eq: return lhs == rhs;
      case Op::Ne: return lhs != rhs;
      case Op::LogAnd: return (lhs != 0) && (rhs != 0);
      case Op::LogOr: return (lhs != 0) || (rhs != 0);
      case Op::Neg: return static_cast<std::int64_t>(0 - bits(lhs));
      case Op::Not: return lhs == 0;
    }
    support::panic("eval: unknown operator");
}

namespace {

class Optimizer
{
  public:
    Optimizer(runtime::ExecutionContext &ctx)
        : ctx_(ctx), m_(ctx.machine())
    {
    }

    OptStats stats;

    void
    run(Program &program)
    {
        for (Function &f : program.functions)
            optimizeStmt(f.body);
    }

  private:
    bool
    isNumber(const ExprPtr &e, std::int64_t value) const
    {
        return e && e->kind == Expr::Kind::Number &&
               e->number == value;
    }

    void
    optimizeExpr(ExprPtr &e)
    {
        if (!e)
            return;
        m_.load(0x720000000ULL + (visited_++ % (1 << 19)) * 8);
        optimizeExpr(e->lhs);
        optimizeExpr(e->rhs);
        for (auto &arg : e->args)
            optimizeExpr(arg);

        if (e->kind == Expr::Kind::Binary) {
            const bool bothConst =
                e->lhs->kind == Expr::Kind::Number &&
                e->rhs->kind == Expr::Kind::Number;
            if (m_.branch(1, bothConst)) {
                // Fold; division by zero stays for runtime diagnosis.
                if ((e->op == Op::Div || e->op == Op::Mod) &&
                    e->rhs->number == 0)
                    return;
                const std::int64_t value =
                    evalOp(e->op, e->lhs->number, e->rhs->number);
                e = Expr::makeNumber(value);
                ++stats.foldedExprs;
                m_.ops(topdown::OpKind::IntAlu, 3);
                return;
            }
            // Algebraic identities: x+0, x*1, x*0, x-0, x/1.
            if (m_.branch(2, e->op == Op::Add &&
                                 (isNumber(e->rhs, 0) ||
                                  isNumber(e->lhs, 0)))) {
                e = isNumber(e->rhs, 0) ? std::move(e->lhs)
                                        : std::move(e->rhs);
                ++stats.simplified;
                return;
            }
            if (m_.branch(3, e->op == Op::Mul &&
                                 (isNumber(e->rhs, 1) ||
                                  isNumber(e->lhs, 1)))) {
                e = isNumber(e->rhs, 1) ? std::move(e->lhs)
                                        : std::move(e->rhs);
                ++stats.simplified;
                return;
            }
            if (m_.branch(4, (e->op == Op::Sub || e->op == Op::Shl ||
                              e->op == Op::Shr) &&
                                 isNumber(e->rhs, 0))) {
                e = std::move(e->lhs);
                ++stats.simplified;
                return;
            }
            if (m_.branch(5, e->op == Op::Div && isNumber(e->rhs, 1))) {
                e = std::move(e->lhs);
                ++stats.simplified;
                return;
            }
        } else if (e->kind == Expr::Kind::Unary &&
                   e->lhs->kind == Expr::Kind::Number) {
            e = Expr::makeNumber(evalOp(e->op, e->lhs->number, 0));
            ++stats.foldedExprs;
        }
    }

    void
    optimizeStmt(StmtPtr &s)
    {
        if (!s)
            return;
        for (auto &child : s->body)
            optimizeStmt(child);
        optimizeExpr(s->cond);
        optimizeStmt(s->thenBranch);
        optimizeStmt(s->elseBranch);
        optimizeStmt(s->loopBody);
        optimizeExpr(s->init);
        optimizeExpr(s->step);
        optimizeExpr(s->expr);

        if (s->kind == Stmt::Kind::If && s->cond &&
            s->cond->kind == Expr::Kind::Number) {
            // Dead-branch elimination on constant conditions.
            ++stats.deadBranches;
            if (s->cond->number != 0) {
                s = std::move(s->thenBranch);
            } else if (s->elseBranch) {
                s = std::move(s->elseBranch);
            } else {
                s = Stmt::makeBlock({});
            }
        } else if (s->kind == Stmt::Kind::While && s->cond &&
                   s->cond->kind == Expr::Kind::Number &&
                   s->cond->number == 0) {
            ++stats.deadBranches;
            s = Stmt::makeBlock({});
        }
    }

    runtime::ExecutionContext &ctx_;
    topdown::Machine &m_;
    std::uint64_t visited_ = 0;
};

} // namespace

OptStats
optimize(Program &program, runtime::ExecutionContext &ctx)
{
    auto scope = ctx.method("gcc::optimize", 6400);
    Optimizer optimizer(ctx);
    optimizer.run(program);
    ctx.consume(optimizer.stats.foldedExprs);
    ctx.consume(optimizer.stats.deadBranches);
    return optimizer.stats;
}

} // namespace alberta::gcc

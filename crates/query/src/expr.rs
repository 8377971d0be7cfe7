//! Filter expressions and the derivation of pruning predicates.
//!
//! §7.2: "when a query is received, BigQuery uses the filters specified
//! in the query to construct derivative expressions on the column
//! properties. The stored column properties are used to evaluate these
//! expressions for each Fragment and Streamlet ... to determine whether
//! it is relevant to the query." [`Expr::may_match_stats`] is that
//! derivative evaluation: `false` means the fragment provably holds no
//! matching row and is eliminated.

use vortex_common::row::Value;
use vortex_common::stats::ColumnStats;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

/// A boolean filter expression over one table's rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Always true.
    True,
    /// `column <op> literal`.
    Cmp {
        /// Column name (top level).
        column: String,
        /// Operator.
        op: CmpOp,
        /// Literal to compare against.
        value: Value,
    },
    /// `column IN (v1, v2, ...)`. NULL list elements never match (SQL
    /// three-valued logic collapsed to boolean, like [`Expr::Cmp`]).
    In {
        /// Column name (top level).
        column: String,
        /// Literals the column may equal.
        values: Vec<Value>,
    },
    /// `column IS NULL`.
    IsNull(String),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// `column = value`.
    pub fn eq(column: &str, value: Value) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            value,
        }
    }

    /// `column < value`.
    pub fn lt(column: &str, value: Value) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Lt,
            value,
        }
    }

    /// `column <= value`.
    pub fn le(column: &str, value: Value) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Le,
            value,
        }
    }

    /// `column > value`.
    pub fn gt(column: &str, value: Value) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Gt,
            value,
        }
    }

    /// `column >= value`.
    pub fn ge(column: &str, value: Value) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Ge,
            value,
        }
    }

    /// `column IN (values...)`.
    pub fn is_in(column: &str, values: Vec<Value>) -> Expr {
        Expr::In {
            column: column.into(),
            values,
        }
    }

    /// `a AND b`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `a OR b`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT a`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// The §7.2 derivative expression over column properties: returns
    /// `false` only if NO row summarized by `stats` can satisfy the
    /// filter. `stats_of` maps a column name to its properties (absent =
    /// unknown = cannot prune).
    pub fn may_match_stats(&self, stats_of: &dyn Fn(&str) -> Option<ColumnStats>) -> bool {
        match self {
            Expr::True => true,
            Expr::Cmp { column, op, value } => {
                let Some(s) = stats_of(column) else {
                    return true; // unknown column properties: keep
                };
                match op {
                    CmpOp::Eq => s.may_contain_point(value),
                    CmpOp::Ne => true, // pruning != needs distinct counts; keep
                    // Strict inequalities reuse the inclusive overlap
                    // check: conservative (a fragment whose min==max==v
                    // is kept for `< v`), never incorrect.
                    CmpOp::Lt | CmpOp::Le => s.may_overlap_range(None, Some(value)),
                    CmpOp::Gt | CmpOp::Ge => s.may_overlap_range(Some(value), None),
                }
            }
            Expr::In { column, values } => {
                let Some(s) = stats_of(column) else {
                    return true;
                };
                values.iter().any(|v| s.may_contain_point(v))
            }
            Expr::IsNull(column) => stats_of(column).map(|s| s.has_null).unwrap_or(true),
            Expr::And(a, b) => a.may_match_stats(stats_of) && b.may_match_stats(stats_of),
            Expr::Or(a, b) => a.may_match_stats(stats_of) || b.may_match_stats(stats_of),
            // NOT cannot be pruned from min/max alone without interval
            // complements; stay safe.
            Expr::Not(_) => true,
        }
    }

    /// Point-equality values per column, used for bloom-filter pruning:
    /// returns `Some(value)` when the expression *requires* `column ==
    /// value` for every matching row.
    pub fn required_point(&self, column: &str) -> Option<&Value> {
        match self {
            Expr::Cmp {
                column: c,
                op: CmpOp::Eq,
                value,
            } if c == column => Some(value),
            // A one-element IN list is an equality requirement (NULL
            // elements never match, so they don't count).
            Expr::In { column: c, values } if c == column => {
                let mut non_null = values.iter().filter(|v| !v.is_null());
                match (non_null.next(), non_null.next()) {
                    (Some(v), None) => Some(v),
                    _ => None,
                }
            }
            Expr::And(a, b) => a
                .required_point(column)
                .or_else(|| b.required_point(column)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pushdown::CPred;
    use vortex_common::row::Row;
    use vortex_common::schema::{Field, FieldType, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::required("a", FieldType::Int64),
            Field::nullable("b", FieldType::String),
        ])
    }

    /// Evaluates `e` on `row` through the compiled predicate, the only
    /// evaluator scans use.
    fn ev(e: &Expr, s: &Schema, row: &Row) -> bool {
        CPred::compile(e, s).unwrap().matches(&row.values)
    }

    fn row(a: i64, b: Option<&str>) -> Row {
        Row::insert(vec![
            Value::Int64(a),
            b.map(|s| Value::String(s.into())).unwrap_or(Value::Null),
        ])
    }

    #[test]
    fn comparisons() {
        let s = schema();
        assert!(ev(&Expr::eq("a", Value::Int64(5)), &s, &row(5, None)));
        assert!(!ev(&Expr::eq("a", Value::Int64(5)), &s, &row(6, None)));
        assert!(ev(&Expr::lt("a", Value::Int64(5)), &s, &row(4, None)));
        assert!(ev(&Expr::le("a", Value::Int64(5)), &s, &row(5, None)));
        assert!(ev(&Expr::gt("a", Value::Int64(5)), &s, &row(6, None)));
        assert!(ev(&Expr::ge("a", Value::Int64(5)), &s, &row(5, None)));
        assert!(ev(&Expr::True, &s, &row(0, None)));
    }

    #[test]
    fn null_semantics() {
        let s = schema();
        // NULL compares false under every operator.
        assert!(!ev(
            &Expr::eq("b", Value::String("x".into())),
            &s,
            &row(1, None)
        ));
        assert!(ev(&Expr::IsNull("b".into()), &s, &row(1, None)));
        assert!(!ev(&Expr::IsNull("b".into()), &s, &row(1, Some("x"))));
        // A row written before the column existed reads it as NULL.
        let short = Row::insert(vec![Value::Int64(1)]);
        assert!(ev(&Expr::IsNull("b".into()), &s, &short));
        assert!(!ev(&Expr::eq("b", Value::String("x".into())), &s, &short));
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let e = Expr::ge("a", Value::Int64(0)).and(Expr::lt("a", Value::Int64(10)));
        assert!(ev(&e, &s, &row(5, None)));
        assert!(!ev(&e, &s, &row(10, None)));
        let o = Expr::eq("a", Value::Int64(1)).or(Expr::eq("a", Value::Int64(2)));
        assert!(ev(&o, &s, &row(2, None)));
        assert!(!ev(&o, &s, &row(3, None)));
        assert!(ev(&Expr::eq("a", Value::Int64(1)).not(), &s, &row(3, None)));
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        assert!(CPred::compile(&Expr::eq("zzz", Value::Int64(1)), &s).is_err());
        assert!(CPred::compile(&Expr::True.and(Expr::IsNull("zzz".into())), &s).is_err());
    }

    fn stats(min: i64, max: i64) -> ColumnStats {
        let mut s = ColumnStats::new();
        s.observe(&Value::Int64(min));
        s.observe(&Value::Int64(max));
        s
    }

    #[test]
    fn stats_pruning() {
        let lookup = |c: &str| (c == "a").then(|| stats(10, 20));
        assert!(Expr::eq("a", Value::Int64(15)).may_match_stats(&lookup));
        assert!(!Expr::eq("a", Value::Int64(25)).may_match_stats(&lookup));
        // Strict bounds at the edge are kept (conservative, documented).
        assert!(Expr::lt("a", Value::Int64(10)).may_match_stats(&lookup));
        assert!(Expr::gt("a", Value::Int64(20)).may_match_stats(&lookup));
        // But clearly-out-of-range strict bounds do prune.
        assert!(!Expr::lt("a", Value::Int64(9)).may_match_stats(&lookup));
        assert!(!Expr::gt("a", Value::Int64(21)).may_match_stats(&lookup));
        assert!(Expr::ge("a", Value::Int64(20)).may_match_stats(&lookup));
        assert!(!Expr::ge("a", Value::Int64(21)).may_match_stats(&lookup));
        assert!(Expr::le("a", Value::Int64(10)).may_match_stats(&lookup));
        assert!(!Expr::le("a", Value::Int64(9)).may_match_stats(&lookup));
        // Unknown column: keep.
        assert!(Expr::eq("other", Value::Int64(1)).may_match_stats(&lookup));
    }

    #[test]
    fn stats_pruning_through_combinators() {
        let lookup = |c: &str| (c == "a").then(|| stats(10, 20));
        // AND prunes if either side prunes.
        let e = Expr::eq("a", Value::Int64(25)).and(Expr::True);
        assert!(!e.may_match_stats(&lookup));
        // OR keeps if either side may match.
        let e = Expr::eq("a", Value::Int64(25)).or(Expr::eq("a", Value::Int64(15)));
        assert!(e.may_match_stats(&lookup));
        let e = Expr::eq("a", Value::Int64(25)).or(Expr::eq("a", Value::Int64(26)));
        assert!(!e.may_match_stats(&lookup));
        // NOT is conservatively kept.
        assert!(Expr::eq("a", Value::Int64(25))
            .not()
            .may_match_stats(&lookup));
    }

    #[test]
    fn in_list_semantics() {
        let s = schema();
        let e = Expr::is_in("a", vec![Value::Int64(2), Value::Int64(5)]);
        assert!(ev(&e, &s, &row(5, None)));
        assert!(!ev(&e, &s, &row(3, None)));
        // NULL row value and NULL list elements never match.
        let e = Expr::is_in("b", vec![Value::Null, Value::String("x".into())]);
        assert!(!ev(&e, &s, &row(1, None)));
        assert!(ev(&e, &s, &row(1, Some("x"))));
        assert!(!ev(&Expr::is_in("a", vec![Value::Null]), &s, &row(1, None)));
        // Empty list matches nothing.
        assert!(!ev(&Expr::is_in("a", vec![]), &s, &row(1, None)));
        // Stats pruning: prune only when NO listed value can occur.
        let lookup = |c: &str| (c == "a").then(|| stats(10, 20));
        assert!(Expr::is_in("a", vec![Value::Int64(1), Value::Int64(15)]).may_match_stats(&lookup));
        assert!(!Expr::is_in("a", vec![Value::Int64(1), Value::Int64(25)]).may_match_stats(&lookup));
        // Singleton IN is a bloom-prunable point requirement.
        let e = Expr::is_in("cust", vec![Value::Null, Value::String("c9".into())]);
        assert_eq!(e.required_point("cust"), Some(&Value::String("c9".into())));
        let e = Expr::is_in(
            "cust",
            vec![Value::String("c8".into()), Value::String("c9".into())],
        );
        assert_eq!(e.required_point("cust"), None);
    }

    #[test]
    fn required_point_extraction() {
        let e = Expr::eq("cust", Value::String("c9".into())).and(Expr::gt("a", Value::Int64(0)));
        assert_eq!(e.required_point("cust"), Some(&Value::String("c9".into())));
        assert_eq!(e.required_point("a"), None, "inequality is not a point");
        // OR does not *require* the point.
        let o = Expr::eq("cust", Value::String("c9".into())).or(Expr::True);
        assert_eq!(o.required_point("cust"), None);
    }
}

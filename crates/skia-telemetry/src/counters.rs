//! One field list per stats struct.
//!
//! The simulator's statistics are plain structs of `u64` counters. Four
//! jobs walk every field: the registry export at snapshot time, the
//! measure-window subtraction of a sampling slice, the weighted sum of a
//! sampled estimate, and the lockstep oracle's field report. Each struct
//! lists its counters once, in a *paired visitor* that hands every counter
//! of one value to a closure beside the same counter of another value,
//! with its metric name:
//!
//! * a flat all-`u64` struct is declared through [`counter_struct!`](crate::counter_struct),
//!   which generates the visitor from the field list of the declaration
//!   itself — a new field reaches all four jobs with no other edit;
//! * a struct that nests others writes its visitor by hand, fully
//!   destructuring itself with no `..` rest pattern, so a new field fails
//!   to compile until it is listed.
//!
//! The name/value walk is the paired walk against a zeroed value.

use std::fmt;

/// A counter's metric name: `scope.leaf`, or `leaf` alone when the scope
/// is empty. It is kept in two parts so that the visitors which only need
/// values (deltas, weighted sums) never format a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterName<'a> {
    /// The dotted prefix of a group of counters (`l1i`, `skia.sbb`), or
    /// empty.
    pub scope: &'a str,
    /// The counter's own name within its scope.
    pub leaf: &'static str,
}

impl fmt::Display for CounterName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scope.is_empty() {
            f.write_str(self.leaf)
        } else {
            write!(f, "{}.{}", self.scope, self.leaf)
        }
    }
}

/// Declare a flat stats struct whose fields are all `u64` counters, plus
/// its paired visitor `zip_counters(&mut self, other, scope, f)`, which
/// calls `f(name, &mut self.field, other.field)` for every field in
/// declaration order, naming it `scope.field`.
///
/// Attributes, doc comments and visibility pass through unchanged, so the
/// struct is exactly the one written inside the invocation. A field of any
/// other type does not match the macro and fails to compile.
///
/// ```
/// skia_telemetry::counter_struct! {
///     /// Two counters.
///     #[derive(Debug, Default)]
///     pub struct Pair {
///         /// Hits.
///         pub hits: u64,
///         /// Misses.
///         pub misses: u64,
///     }
/// }
///
/// let p = Pair { hits: 3, misses: 4 };
/// let mut names = Vec::new();
/// Pair::default().zip_counters(&p, "l9", &mut |name, _, v| names.push(format!("{name}={v}")));
/// assert_eq!(names, ["l9.hits=3", "l9.misses=4"]);
/// ```
#[macro_export]
macro_rules! counter_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident: u64 ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: u64, )+
        }

        impl $name {
            /// Visit every counter of `self` beside the same counter of
            /// `other`, named `scope.<field>`, in declaration order — the
            /// one field list behind this struct's registry export, slice
            /// deltas and sampled estimates.
            #[inline]
            pub fn zip_counters(
                &mut self,
                other: &Self,
                scope: &str,
                f: &mut impl FnMut($crate::CounterName<'_>, &mut u64, u64),
            ) {
                $(
                    f(
                        $crate::CounterName { scope, leaf: stringify!($field) },
                        &mut self.$field,
                        other.$field,
                    );
                )+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::CounterName;

    crate::counter_struct! {
        /// A test struct.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        struct Three {
            a: u64,
            b: u64,
            c: u64,
        }
    }

    #[test]
    fn names_join_scope_and_leaf() {
        let full = CounterName {
            scope: "",
            leaf: "sim.cycles",
        };
        let scoped = CounterName {
            scope: "skia.sbb",
            leaf: "u_hits",
        };
        assert_eq!(full.to_string(), "sim.cycles");
        assert_eq!(scoped.to_string(), "skia.sbb.u_hits");
    }

    #[test]
    fn zip_pairs_every_field_in_order() {
        let mut now = Three {
            a: 10,
            b: 20,
            c: 30,
        };
        let base = Three { a: 1, b: 2, c: 3 };
        let mut seen = Vec::new();
        now.zip_counters(&base, "t", &mut |name, n, b| {
            seen.push(name.to_string());
            *n -= b;
        });
        assert_eq!(seen, ["t.a", "t.b", "t.c"]);
        assert_eq!(now, Three { a: 9, b: 18, c: 27 });
    }
}

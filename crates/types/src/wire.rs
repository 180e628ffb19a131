//! Wire names: the one spelling of each enum value that crosses a wire.
//!
//! Event JSONL, `.wbcfg` files, `wbsim-job/1` manifests, `.wbp` property
//! files and the CLI all name policies, stall kinds, faults and engines
//! by the same lowercase tokens. Each such enum declares its tokens once,
//! with [`wire_names!`](crate::wire_names) beside its definition; every
//! reader and writer goes through the generated `name`, `from_name` and
//! `NAMES`. Human `Display` labels (`read-from-WB`, `FIFO`) are separate
//! and may differ in case only, so what people type (`.wbcfg` files,
//! manifests, CLI flags) goes through the one case-insensitive lookup,
//! the generated `FromStr`, which takes every wire name and every such
//! label. Machine-written streams (the event codec) keep the exact
//! `from_name`.

use std::fmt::{Display, Write as _};

/// Declares a fieldless enum's wire names, one `Variant => "token"` row
/// per variant, and generates from the rows:
///
/// * `NAMES`, every token in row order;
/// * `const fn name(self)`, the value's token (a missing row does not
///   compile);
/// * `fn from_name(&str)`, the value a token spells, by exact match;
/// * `FromStr`, the same lookup ignoring ASCII case, its error listing
///   the names;
/// * with `: Display` after the type, a `Display` that prints the token.
///
/// ```
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Side { Left, Right }
/// wbsim_types::wire_names!(Side: Display { Left => "left", Right => "right" });
///
/// assert_eq!(Side::NAMES, ["left", "right"]);
/// assert_eq!(Side::Left.to_string(), "left");
/// assert_eq!(Side::Right.name(), "right");
/// assert_eq!(Side::from_name("left"), Some(Side::Left));
/// assert_eq!(Side::from_name("Left"), None);
/// assert_eq!("LEFT".parse::<Side>(), Ok(Side::Left));
/// assert!("up".parse::<Side>().unwrap_err().contains("left or right"));
/// ```
#[macro_export]
macro_rules! wire_names {
    ($ty:ident: Display { $($rows:tt)* }) => {
        $crate::wire_names!($ty { $($rows)* });

        impl ::std::fmt::Display for $ty {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $ty {
            /// Every wire name, in table order.
            pub const NAMES: &'static [&'static str] = &[$($name),+];

            /// The value's wire name.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self {
                    $(Self::$variant => $name,)+
                }
            }

            /// The value a wire name spells (exact match), if any.
            #[must_use]
            pub fn from_name(name: &str) -> Option<Self> {
                match name {
                    $($name => Some(Self::$variant),)+
                    _ => None,
                }
            }
        }

        impl ::std::str::FromStr for $ty {
            type Err = String;

            /// The value a wire name spells in any ASCII case, or a
            /// message listing the names.
            fn from_str(s: &str) -> Result<Self, String> {
                $(if s.eq_ignore_ascii_case($name) {
                    return Ok(Self::$variant);
                })+
                Err(format!("unknown name {s:?}, expected {}", $crate::wire::or_list(Self::NAMES, " or ")))
            }
        }
    };
}

/// Lists `names` as prose, `a, b or c`, with `last` before the final name.
#[must_use]
pub fn or_list(names: &[impl Display], last: &str) -> String {
    let mut s = String::new();
    for (i, n) in names.iter().enumerate() {
        let sep = match i {
            0 => "",
            _ if i + 1 == names.len() => last,
            _ => ", ",
        };
        let _ = write!(s, "{sep}{n}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_list_reads_as_prose() {
        assert_eq!(or_list(&["a"], " or "), "a");
        assert_eq!(or_list(&["a", "b"], " or "), "a or b");
        assert_eq!(or_list(&["a", "b", "c"], ", or "), "a, b, or c");
        let none: [&str; 0] = [];
        assert_eq!(or_list(&none, " or "), "");
    }
}

//! Fine: DESIGN.md §1, `DESIGN.md` §2 and DESIGN.md §1, §2.
//! Fine, title wrapped: (DESIGN.md §1 "Gamma
//! delta").
//! Fine, number wrapped: (DESIGN.md
//! §2 "Beta"), and a section's own title: DESIGN.md §2, "Second section".

/// A wrong section number: DESIGN.md §3.
/// A title from another section: DESIGN.md §2, "Alpha".
pub fn f() -> &'static str {
    "a wrong number in a list: DESIGN.md \u{a7}1/\u{a7}4"
}

//! SARIF 2.1.0 output.
//!
//! Renders diagnostics in the minimal Static Analysis Results Interchange
//! Format shape that GitHub code scanning consumes: one `run` with a
//! `tool.driver` carrying the full rule table (D-rules and A-rules, each
//! with its `--explain` text as `fullDescription`) and one `result` per
//! diagnostic with a single physical location. Hand-rolled like
//! [`crate::diag::render_json`] — same escaping, same determinism contract
//! (diagnostics arrive pre-sorted, rules are emitted in table order).

use crate::arules::SEM_RULES;
use crate::config::Severity;
use crate::diag::{json_str, Diagnostic};
use crate::rules::RULES;
use crate::RunStats;

const SARIF_SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// Renders the full SARIF document, trailing newline included. The run's
/// `properties` bag carries the [`RunStats`], blind spots included.
pub fn render_sarif(diags: &[Diagnostic], stats: &RunStats) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"$schema\": {},\n", json_str(SARIF_SCHEMA)));
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"leaky-lint\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/leaky-dnn/leaky-dnn\",\n");
    out.push_str("          \"rules\": [\n");
    let mut rules: Vec<(&str, &str, &str)> = Vec::new();
    for r in RULES {
        rules.push((r.id, r.name, r.explain));
    }
    for r in SEM_RULES {
        rules.push((r.id, r.name, r.explain));
    }
    for (i, (id, name, explain)) in rules.iter().enumerate() {
        out.push_str("            {\n");
        out.push_str(&format!("              \"id\": {},\n", json_str(id)));
        out.push_str(&format!(
            "              \"name\": {},\n",
            json_str(&kebab_to_pascal(name))
        ));
        out.push_str(&format!(
            "              \"shortDescription\": {{ \"text\": {} }},\n",
            json_str(name)
        ));
        out.push_str(&format!(
            "              \"fullDescription\": {{ \"text\": {} }}\n",
            json_str(explain)
        ));
        out.push_str(if i + 1 < rules.len() {
            "            },\n"
        } else {
            "            }\n"
        });
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, d) in diags.iter().enumerate() {
        let level = match d.severity {
            Severity::Error => "error",
            Severity::Warn => "warning",
        };
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": {},\n", json_str(d.rule)));
        out.push_str(&format!("          \"level\": {},\n", json_str(level)));
        out.push_str(&format!(
            "          \"message\": {{ \"text\": {} }},\n",
            json_str(&d.message)
        ));
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        out.push_str(&format!(
            "                \"artifactLocation\": {{ \"uri\": {} }},\n",
            json_str(&d.path)
        ));
        out.push_str(&format!(
            "                \"region\": {{ \"startLine\": {} }}\n",
            d.line
        ));
        out.push_str("              }\n            }\n          ]\n");
        out.push_str(if i + 1 < diags.len() {
            "        },\n"
        } else {
            "        }\n"
        });
    }
    out.push_str("      ],\n");
    out.push_str(&format!(
        "      \"properties\": {{ \"filesAnalyzed\": {}, \"unresolvedCalls\": {}, \"fnsIndexed\": {}, \"unparsedItems\": {} }}\n",
        stats.files_analyzed, stats.unresolved_calls, stats.fns_indexed, stats.unparsed_items,
    ));
    out.push_str("    }\n  ]\n}\n");
    out
}

/// `hot-path-allocation` → `HotPathAllocation` (SARIF rule names are
/// conventionally PascalCase identifiers).
fn kebab_to_pascal(name: &str) -> String {
    name.split(['-', '_'])
        .map(|w| {
            let mut cs = w.chars();
            match cs.next() {
                Some(f) => f.to_uppercase().chain(cs).collect::<String>(),
                None => String::new(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                rule: "A2",
                name: "panic-free-serving",
                severity: Severity::Error,
                path: "crates/core/src/fleet.rs".into(),
                line: 42,
                message: "`.unwrap()` reachable from `core::fleet::run_fleet`".into(),
            },
            Diagnostic {
                rule: "D2",
                name: "no-hash-iteration",
                severity: Severity::Warn,
                path: "crates/ml/src/seq.rs".into(),
                line: 7,
                message: "iterating a HashMap with \"quotes\"".into(),
            },
        ]
    }

    #[test]
    fn has_the_2_1_0_shape_github_consumes() {
        let s = render_sarif(&sample(), &RunStats::default());
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("sarif-schema-2.1.0.json"));
        assert!(s.contains("\"name\": \"leaky-lint\""));
        assert!(s.contains("\"ruleId\": \"A2\""));
        assert!(s.contains("\"level\": \"error\""));
        assert!(s.contains("\"level\": \"warning\""));
        assert!(s.contains("\"uri\": \"crates/core/src/fleet.rs\""));
        assert!(s.contains("\"startLine\": 42"));
        // every rule in both tables is declared in the driver
        for r in RULES {
            assert!(
                s.contains(&format!("\"id\": \"{}\"", r.id)),
                "missing {}",
                r.id
            );
        }
        for r in SEM_RULES {
            assert!(
                s.contains(&format!("\"id\": \"{}\"", r.id)),
                "missing {}",
                r.id
            );
        }
    }

    #[test]
    fn escapes_message_content() {
        let s = render_sarif(&sample(), &RunStats::default());
        assert!(s.contains("with \\\"quotes\\\""));
    }

    #[test]
    fn empty_results_array_is_valid() {
        let s = render_sarif(&[], &RunStats::default());
        assert!(s.contains("\"results\": [\n      ],"));
    }

    #[test]
    fn balanced_braces_and_brackets() {
        // cheap structural sanity: the writer never emits strings with
        // unescaped braces, so raw counts must balance.
        let s = render_sarif(&sample(), &RunStats::default());
        let opens = s.matches('{').count();
        let closes = s.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn pascal_casing() {
        assert_eq!(kebab_to_pascal("hot-path-allocation"), "HotPathAllocation");
        assert_eq!(kebab_to_pascal("x"), "X");
    }
}

//! Golden shape for `check --format json`. Downstream tooling (the CI
//! static-analysis job, editor annotations) keys on these exact
//! names; this test is the schema's change detector — bump `schema`
//! when it has to move.

use chipletqc_check::{CheckReport, Finding};

#[test]
fn schema_three_shape_is_pinned() {
    let report = CheckReport {
        findings: vec![Finding {
            rule: "lock-order",
            path: "crates/a/src/x.rs".to_string(),
            line: 7,
            message: "cycle".to_string(),
        }],
        files_scanned: 2,
    };
    let expected = concat!(
        "{\n",
        "  \"schema\": 3,\n",
        "  \"files_scanned\": 2,\n",
        "  \"clean\": false,\n",
        "  \"findings\": [\n",
        "    {\"rule\": \"lock-order\", \"file\": \"crates/a/src/x.rs\", \"line\": 7, ",
        "\"message\": \"cycle\"}\n",
        "  ]\n",
        "}\n",
    );
    assert_eq!(report.to_json(), expected);
}

#[test]
fn empty_report_shape_is_pinned() {
    let report = CheckReport { findings: vec![], files_scanned: 0 };
    let expected = concat!(
        "{\n",
        "  \"schema\": 3,\n",
        "  \"files_scanned\": 0,\n",
        "  \"clean\": true,\n",
        "  \"findings\": []\n",
        "}\n",
    );
    assert_eq!(report.to_json(), expected);
}

//! Report emission: the CSV row writer. JSON reports use the workspace's
//! one value tree, [`qccd_obs::json::Json`].

/// Renders one CSV row, quoting fields that need it.
pub fn csv_row(fields: &[String]) -> String {
    fields
        .iter()
        .map(|f| {
            if f.contains(',') || f.contains('"') || f.contains('\n') {
                format!("\"{}\"", f.replace('"', "\"\""))
            } else {
                f.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_quotes_when_needed() {
        assert_eq!(
            csv_row(&["a".into(), "b,c".into(), "d\"e".into()]),
            "a,\"b,c\",\"d\"\"e\""
        );
    }
}

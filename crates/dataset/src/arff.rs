//! ARFF (Attribute-Relation File Format) serialization.
//!
//! The Morris et al. capture ships as an ARFF file; this module writes and
//! parses the same style of file for our records so captures can be stored,
//! diffed and shared. Missing payload features are encoded as `?`, exactly
//! like the original.

use std::error::Error;
use std::fmt;
use std::io::{self, Write};

use icsad_simulator::AttackType;

use crate::record::Record;

/// The relation name written to the header.
pub const RELATION: &str = "gas_pipeline";

/// Attribute names in column order.
pub const ATTRIBUTES: [&str; 20] = [
    "address",
    "crc_rate",
    "crc_ok",
    "function",
    "length",
    "setpoint",
    "gain",
    "reset_rate",
    "deadband",
    "cycle_time",
    "rate",
    "system_mode",
    "control_scheme",
    "pump",
    "solenoid",
    "pressure_measurement",
    "command_response",
    "time",
    "time_interval",
    "label",
];

/// Errors produced when parsing an ARFF file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArffError {
    /// The header is missing or malformed.
    BadHeader {
        /// Explanation.
        reason: String,
    },
    /// A data row could not be parsed.
    BadRow {
        /// 1-based line number in the file.
        line: usize,
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for ArffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArffError::BadHeader { reason } => write!(f, "bad arff header: {reason}"),
            ArffError::BadRow { line, reason } => {
                write!(f, "bad arff row at line {line}: {reason}")
            }
        }
    }
}

impl Error for ArffError {}

fn label_name(label: Option<AttackType>) -> &'static str {
    match label {
        None => "normal",
        Some(AttackType::Nmri) => "NMRI",
        Some(AttackType::Cmri) => "CMRI",
        Some(AttackType::Msci) => "MSCI",
        Some(AttackType::Mpci) => "MPCI",
        Some(AttackType::Mfci) => "MFCI",
        Some(AttackType::Dos) => "DoS",
        Some(AttackType::Recon) => "Recon",
    }
}

fn label_from_name(name: &str) -> Option<Option<AttackType>> {
    match name {
        "normal" => Some(None),
        "NMRI" => Some(Some(AttackType::Nmri)),
        "CMRI" => Some(Some(AttackType::Cmri)),
        "MSCI" => Some(Some(AttackType::Msci)),
        "MPCI" => Some(Some(AttackType::Mpci)),
        "MFCI" => Some(Some(AttackType::Mfci)),
        "DoS" => Some(Some(AttackType::Dos)),
        "Recon" | "Recon." => Some(Some(AttackType::Recon)),
        _ => None,
    }
}

fn opt_num<T: fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "?".to_string(),
    }
}

/// Writes records to a writer in ARFF format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_arff<W: Write>(mut w: W, records: &[Record]) -> io::Result<()> {
    writeln!(w, "@relation {RELATION}")?;
    writeln!(w)?;
    for attr in &ATTRIBUTES[..ATTRIBUTES.len() - 1] {
        writeln!(w, "@attribute {attr} numeric")?;
    }
    writeln!(
        w,
        "@attribute label {{normal,NMRI,CMRI,MSCI,MPCI,MFCI,DoS,Recon}}"
    )?;
    writeln!(w)?;
    writeln!(w, "@data")?;
    for r in records {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.address,
            r.crc_rate,
            u8::from(r.crc_ok),
            r.function,
            r.length,
            opt_num(r.setpoint),
            opt_num(r.gain),
            opt_num(r.reset_rate),
            opt_num(r.deadband),
            opt_num(r.cycle_time),
            opt_num(r.rate),
            opt_num(r.system_mode),
            opt_num(r.control_scheme),
            opt_num(r.pump),
            opt_num(r.solenoid),
            opt_num(r.pressure),
            u8::from(r.command_response),
            r.time,
            r.time_interval,
            label_name(r.label),
        )?;
    }
    Ok(())
}

/// Serializes records to an ARFF string.
pub fn to_arff_string(records: &[Record]) -> String {
    let mut buf = Vec::new();
    write_arff(&mut buf, records).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("arff output is ascii")
}

fn parse_field<T: std::str::FromStr>(field: &str, line: usize, name: &str) -> Result<T, ArffError> {
    field.trim().parse().map_err(|_| ArffError::BadRow {
        line,
        reason: format!("cannot parse {name} from {field:?}"),
    })
}

fn parse_opt<T: std::str::FromStr>(
    field: &str,
    line: usize,
    name: &str,
) -> Result<Option<T>, ArffError> {
    let t = field.trim();
    if t == "?" {
        Ok(None)
    } else {
        parse_field(t, line, name).map(Some)
    }
}

/// A float column. `str::parse::<f64>` accepts `NaN`, `inf` and
/// `-infinity`; no capture measures one, and a non-finite value has no
/// place in k-means' ordering or a baseline's `score > threshold`, so it
/// is rejected here the way the wire path quarantines a non-finite
/// timestamp.
fn parse_float(field: &str, line: usize, name: &str) -> Result<f64, ArffError> {
    match parse_field::<f64>(field, line, name)? {
        value if value.is_finite() => Ok(value),
        _ => Err(ArffError::BadRow {
            line,
            reason: format!("{name} is not finite: {field:?}"),
        }),
    }
}

fn parse_opt_float(field: &str, line: usize, name: &str) -> Result<Option<f64>, ArffError> {
    match field.trim() {
        "?" => Ok(None),
        _ => parse_float(field, line, name).map(Some),
    }
}

/// Parses an ARFF string produced by [`write_arff`].
///
/// # Errors
///
/// Returns [`ArffError`] for malformed headers or rows, including a float
/// column that is not finite.
pub fn parse_arff(input: &str) -> Result<Vec<Record>, ArffError> {
    let mut in_data = false;
    let mut attr_count = 0usize;
    let mut records = Vec::new();
    let mut saw_relation = false;

    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        if !in_data {
            let lower = line.to_ascii_lowercase();
            if lower.starts_with("@relation") {
                saw_relation = true;
            } else if lower.starts_with("@attribute") {
                attr_count += 1;
            } else if lower.starts_with("@data") {
                if !saw_relation {
                    return Err(ArffError::BadHeader {
                        reason: "missing @relation".into(),
                    });
                }
                if attr_count != ATTRIBUTES.len() {
                    return Err(ArffError::BadHeader {
                        reason: format!(
                            "expected {} attributes, found {attr_count}",
                            ATTRIBUTES.len()
                        ),
                    });
                }
                in_data = true;
            } else {
                return Err(ArffError::BadHeader {
                    reason: format!("unexpected header line {line:?}"),
                });
            }
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != ATTRIBUTES.len() {
            return Err(ArffError::BadRow {
                line: line_no,
                reason: format!(
                    "expected {} fields, found {}",
                    ATTRIBUTES.len(),
                    fields.len()
                ),
            });
        }
        let crc_ok: u8 = parse_field(fields[2], line_no, "crc_ok")?;
        let command_response: u8 = parse_field(fields[16], line_no, "command_response")?;
        let label = label_from_name(fields[19].trim()).ok_or_else(|| ArffError::BadRow {
            line: line_no,
            reason: format!("unknown label {:?}", fields[19]),
        })?;
        records.push(Record {
            address: parse_field(fields[0], line_no, "address")?,
            crc_rate: parse_float(fields[1], line_no, "crc_rate")?,
            crc_ok: crc_ok != 0,
            function: parse_field(fields[3], line_no, "function")?,
            length: parse_field(fields[4], line_no, "length")?,
            setpoint: parse_opt_float(fields[5], line_no, "setpoint")?,
            gain: parse_opt_float(fields[6], line_no, "gain")?,
            reset_rate: parse_opt_float(fields[7], line_no, "reset_rate")?,
            deadband: parse_opt_float(fields[8], line_no, "deadband")?,
            cycle_time: parse_opt_float(fields[9], line_no, "cycle_time")?,
            rate: parse_opt_float(fields[10], line_no, "rate")?,
            system_mode: parse_opt(fields[11], line_no, "system_mode")?,
            control_scheme: parse_opt(fields[12], line_no, "control_scheme")?,
            pump: parse_opt(fields[13], line_no, "pump")?,
            solenoid: parse_opt(fields[14], line_no, "solenoid")?,
            pressure: parse_opt_float(fields[15], line_no, "pressure_measurement")?,
            command_response: command_response != 0,
            time: parse_float(fields[17], line_no, "time")?,
            time_interval: parse_float(fields[18], line_no, "time_interval")?,
            label,
        });
    }
    if !in_data {
        return Err(ArffError::BadHeader {
            reason: "missing @data section".into(),
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{DatasetConfig, GasPipelineDataset};

    fn sample_records() -> Vec<Record> {
        GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 200,
            seed: 21,
            attack_probability: 0.2,
            ..DatasetConfig::default()
        })
        .records()
        .to_vec()
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = sample_records();
        let text = to_arff_string(&records);
        let parsed = parse_arff(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn header_contains_all_attributes() {
        let text = to_arff_string(&[]);
        for attr in ATTRIBUTES {
            assert!(text.contains(attr), "missing attribute {attr}");
        }
        assert!(text.contains("@relation gas_pipeline"));
        assert!(text.contains("@data"));
    }

    #[test]
    fn missing_values_written_as_question_mark() {
        let r = Record::empty_at(1.0);
        let text = to_arff_string(&[r]);
        let data_line = text.lines().last().unwrap();
        assert!(data_line.contains('?'));
    }

    #[test]
    fn labels_round_trip() {
        for label in std::iter::once(None).chain(AttackType::ALL.into_iter().map(Some)) {
            let mut r = Record::empty_at(0.0);
            r.label = label;
            let parsed = parse_arff(&to_arff_string(&[r])).unwrap();
            assert_eq!(parsed[0].label, label);
        }
    }

    #[test]
    fn rejects_missing_relation() {
        assert!(matches!(
            parse_arff("@data\n1,2,3"),
            Err(ArffError::BadHeader { .. })
        ));
    }

    #[test]
    fn rejects_wrong_attribute_count() {
        let text = "@relation x\n@attribute a numeric\n@data\n1\n";
        assert!(matches!(parse_arff(text), Err(ArffError::BadHeader { .. })));
    }

    #[test]
    fn rejects_short_rows() {
        let mut text = to_arff_string(&[Record::empty_at(0.0)]);
        text.push_str("1,2,3\n");
        assert!(matches!(parse_arff(&text), Err(ArffError::BadRow { .. })));
    }

    #[test]
    fn rejects_unknown_label() {
        let good = to_arff_string(&[Record::empty_at(0.0)]);
        let bad = good.replace(",normal", ",martian");
        assert!(matches!(parse_arff(&bad), Err(ArffError::BadRow { .. })));
    }

    #[test]
    fn rejects_unparsable_numbers() {
        let good = to_arff_string(&[Record::empty_at(0.0)]);
        let data_start = good.find("@data").unwrap();
        let bad = format!(
            "{}@data\nxyz{}",
            &good[..data_start],
            &good[data_start + 6..]
                .split_once(',')
                .map(|(_, rest)| format!(",{rest}"))
                .unwrap_or_default()
        );
        assert!(parse_arff(&bad).is_err());
    }

    #[test]
    fn rejects_non_finite_floats_naming_line_and_field() {
        let records = sample_records();
        let text = to_arff_string(&records);
        let (header, row) = text.split_at(text.find("@data\n").unwrap() + 6);
        let row = row.lines().next().unwrap();
        let data_line = header.lines().count() + 1;
        let float_columns = [1, 5, 6, 7, 8, 9, 10, 15, 17, 18];
        for column in float_columns {
            for bad in ["NaN", "inf", "-inf", "-infinity"] {
                let mut fields: Vec<&str> = row.split(',').collect();
                fields[column] = bad;
                let err = parse_arff(&format!("{header}{}\n", fields.join(","))).unwrap_err();
                let ArffError::BadRow { line, reason } = &err else {
                    panic!("{bad} in {}: {err}", ATTRIBUTES[column]);
                };
                assert_eq!(*line, data_line);
                assert!(reason.contains(ATTRIBUTES[column]), "{reason}");
            }
        }
        // `?` stays "absent" in the optional float columns.
        let mut fields: Vec<&str> = row.split(',').collect();
        for column in [5, 6, 7, 8, 9, 10, 15] {
            fields[column] = "?";
        }
        let parsed = parse_arff(&format!("{header}{}\n", fields.join(","))).unwrap();
        assert_eq!((parsed[0].setpoint, parsed[0].pressure), (None, None));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut text = String::from("% a comment\n\n");
        text.push_str(&to_arff_string(&[Record::empty_at(0.0)]));
        assert_eq!(parse_arff(&text).unwrap().len(), 1);
    }

    #[test]
    fn empty_data_section_is_valid() {
        let parsed = parse_arff(&to_arff_string(&[])).unwrap();
        assert!(parsed.is_empty());
    }
}

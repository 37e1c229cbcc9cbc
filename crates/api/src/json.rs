//! The workspace's JSON writer, defined in `rbqa-obs` (the bottom of the
//! dependency graph) and re-exported here so the wire layer, the reports
//! and the network binaries keep their `rbqa_api::json` paths.

pub use rbqa_obs::json::{json_array, json_escape, json_string, JsonObject};

//! The line-delimited serving front end (stdio or TCP).
//!
//! Each input line is one JSON request or a JSON array of requests;
//! each request yields one JSON response line. Responses stream in
//! completion order (correlate by `id`). An empty line or EOF shuts
//! the service down cleanly, draining in-flight queries first; a final
//! stats line (`{"stats": ...}`) closes the session.

use crate::protocol::{Request, Response};
use crate::server::{Service, ServiceConfig};
use std::io::{BufRead, Write};
use std::sync::mpsc;

/// Serves the line protocol over any reader/writer pair until EOF or
/// an empty line; returns the number of requests served.
///
/// Blocking `submit` is used, so a saturated queue exerts backpressure
/// on the input stream instead of dropping requests.
pub fn serve_lines<R: BufRead, W: Write>(
    reader: R,
    writer: &mut W,
    cfg: ServiceConfig,
) -> std::io::Result<u64> {
    let svc = Service::start(cfg);
    let (tx, rx) = mpsc::channel::<Response>();
    // Writer thread: stream responses as they complete. The response
    // text funnels through a channel so the reader loop below keeps
    // sole ownership of `writer` until the service drains.
    let (out_tx, out_rx) = mpsc::channel::<String>();
    let printer = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for resp in rx {
            let line = resp.to_json();
            if out_tx.send(line.clone()).is_err() {
                lines.push(line);
            }
        }
        lines
    });
    let mut served = 0u64;
    for line in reader.lines() {
        let line = line?;
        // Drain any completed responses opportunistically.
        while let Ok(l) = out_rx.try_recv() {
            writeln!(writer, "{l}")?;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break;
        }
        match Request::batch_from_line(trimmed) {
            Ok(reqs) => {
                for req in reqs {
                    served += 1;
                    svc.submit(req, tx.clone());
                }
            }
            Err(msg) => {
                writeln!(
                    writer,
                    "{{\"status\":\"error\",\"message\":\"{}\"}}",
                    perf_core::trace::json_escape(&msg)
                )?;
            }
        }
    }
    drop(tx);
    let snapshot = svc.shutdown();
    // All workers have exited; the response channel is closed, so the
    // printer thread has (or will immediately) run out of input.
    for l in out_rx.iter() {
        writeln!(writer, "{l}")?;
    }
    if let Ok(rest) = printer.join() {
        for l in rest {
            writeln!(writer, "{l}")?;
        }
    }
    writeln!(writer, "{{\"stats\":{}}}", snapshot.to_json())?;
    writer.flush()?;
    Ok(served)
}

/// Binds a TCP listener on `addr` and serves one connection at a time
/// with a fresh service per connection. Returns after `max_conns`
/// connections (useful for tests; pass `u64::MAX` to serve forever).
pub fn serve_tcp(addr: &str, cfg: ServiceConfig, max_conns: u64) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    let mut served = 0u64;
    for stream in listener.incoming() {
        let stream = stream?;
        let peer = stream.peer_addr()?;
        let reader = std::io::BufReader::new(stream.try_clone()?);
        let mut writer = std::io::BufWriter::new(stream);
        match serve_lines(reader, &mut writer, cfg) {
            Ok(n) => eprintln!("perf-service: served {n} request(s) from {peer}"),
            Err(e) => eprintln!("perf-service: connection from {peer} failed: {e}"),
        }
        served += 1;
        if served >= max_conns {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_session_serves_batches_and_reports_stats() {
        let input = "\
{\"id\":1,\"accel\":\"vta\",\"metric\":\"latency\",\"spec\":{\"kind\":\"finish_only\"}}\n\
[{\"id\":2,\"accel\":\"bitcoin-miner\",\"metric\":\"latency\",\"repr\":\"program\",\"spec\":{\"kind\":\"scan\",\"loop\":8,\"nonce_count\":100,\"difficulty\":256}},\
 {\"id\":3,\"accel\":\"vta\",\"metric\":\"throughput\",\"spec\":{\"kind\":\"single\",\"seed\":1}}]\n\
not json\n\
\n";
        let mut out = Vec::new();
        let served = serve_lines(
            std::io::BufReader::new(input.as_bytes()),
            &mut out,
            ServiceConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(served, 3);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 3 responses + 1 parse error + 1 stats line.
        assert_eq!(lines.len(), 5, "{text}");
        assert_eq!(text.matches("\"status\":\"ok\"").count(), 3, "{text}");
        assert!(text.contains("\"status\":\"error\""));
        assert!(text.lines().last().unwrap().starts_with("{\"stats\":"));
        for l in &lines {
            assert!(crate::json::Json::parse(l).is_ok(), "invalid JSON: {l}");
        }
    }

    /// Regression: a too-deeply nested line is answered with an error
    /// line, and the session goes on serving the next line (it used to
    /// overflow the stack and abort the process).
    #[test]
    fn deeply_nested_line_is_an_error_and_serving_continues() {
        let input = format!(
            "{}\n{{\"id\":1,\"accel\":\"vta\",\"metric\":\"latency\",\"spec\":{{\"kind\":\"finish_only\"}}}}\n\n",
            "[".repeat(200_000)
        );
        let mut out = Vec::new();
        let served = serve_lines(
            std::io::BufReader::new(input.as_bytes()),
            &mut out,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(served, 1);
        let text = String::from_utf8(out).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.contains("\"status\":\"error\""), "{text}");
        assert!(first.contains("nesting"), "{text}");
        assert_eq!(text.matches("\"status\":\"ok\"").count(), 1, "{text}");
    }

    /// Regression: an oversize stream request must come back as a
    /// rendered protocol error, not a silently clamped-to-4096 answer
    /// labeled as if it covered the full request.
    #[test]
    fn oversize_pipeline_stream_is_a_protocol_error() {
        let input = "\
{\"id\":1,\"accel\":\"pipe:vta:2>protoacc:2\",\"metric\":\"latency\",\"spec\":{\"kind\":\"stream\",\"items\":10000}}\n\
{\"id\":2,\"accel\":\"pipe:vta:2>(protoacc:2|bitcoin-miner:2)>protoacc:3\",\"metric\":\"latency\",\"spec\":{\"kind\":\"stream\",\"items\":4,\"seed\":2}}\n\
\n";
        let mut out = Vec::new();
        let served = serve_lines(
            std::io::BufReader::new(input.as_bytes()),
            &mut out,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(served, 2);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("\"status\":\"error\"").count(), 1, "{text}");
        assert!(text.contains("4096"), "{text}");
        assert!(text.contains("10000"), "{text}");
        // The DAG chain spec flows through the `pipe:` registry path.
        assert_eq!(text.matches("\"status\":\"ok\"").count(), 1, "{text}");
    }
}

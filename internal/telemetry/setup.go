package telemetry

import (
	"fmt"
	"os"
)

// Setup wires the observability command-line options shared by the iprism
// commands: a non-empty addr serves expvar+pprof there, a non-empty
// journalPath opens a JSONL journal (OpenJournal, so it rotates at
// journalMaxBytes) and installs it as the process-wide event sink, and
// either being set enables metric collection. The returned cleanup stops
// the server, then flushes and detaches the journal; it is safe to call
// when both options were empty.
func Setup(addr, journalPath string) (func() error, error) {
	var (
		srv *Server
		jnl *Journal
		err error
	)
	if addr != "" {
		if srv, err = Serve(addr); err != nil {
			return nil, err
		}
		// stderr: several commands stream CSV/markdown on stdout.
		fmt.Fprintf(os.Stderr, "telemetry: serving expvar and pprof on http://%s/debug/vars\n", srv.Addr)
	}
	if journalPath != "" {
		if jnl, err = OpenJournal(journalPath); err != nil {
			if srv != nil {
				srv.Close()
			}
			return nil, err
		}
		SetJournal(jnl)
	}
	if srv != nil || jnl != nil {
		Enable()
	}
	return func() error {
		var first error
		if srv != nil {
			first = srv.Close()
		}
		if jnl != nil {
			SetJournal(nil)
			if cerr := jnl.Close(); first == nil {
				first = cerr
			}
		}
		return first
	}, nil
}

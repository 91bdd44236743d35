// The trace subcommand exports a span timeline as Chrome trace-event JSON,
// viewable in ui.perfetto.dev or chrome://tracing:
//
//	pmrace trace -server http://host:7762 c0001 > timeline.json
//	pmrace trace ./bugs/0001-inter -o timeline.json
//	pmrace trace -check c0001
//
// The positional argument is either a pmraced campaign ID (fetched from the
// server's /trace endpoint) or a local artifact-bundle directory (converted
// from the bundle's spans.json). -check validates the exported document
// against the Chrome trace-event contract instead of trusting it blindly —
// CI uses it to gate the export format.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"github.com/pmrace-go/pmrace/client"
	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/obs"
)

func runTrace(args []string, stdout, stderr io.Writer) int {
	fs, server := remoteFlags("trace", stderr)
	out := fs.String("o", "", "write the trace to this file (default: stdout)")
	check := fs.Bool("check", false, "validate the exported document's trace-event shape (exit 2 on violation)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "pmrace: trace: want exactly one argument — a campaign ID or an artifact-bundle directory")
		return 2
	}
	arg := fs.Arg(0)

	var raw []byte
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		raw, err = bundleTrace(arg)
		if err != nil {
			fmt.Fprintf(stderr, "pmrace: trace: %v\n", err)
			return 2
		}
	} else {
		ctx, stop := signalContext()
		defer stop()
		raw, err = client.New(*server).Trace(ctx, arg)
		if err != nil {
			fmt.Fprintf(stderr, "pmrace: trace: %v\n", err)
			return 2
		}
	}

	if *check {
		if err := obs.ValidateChromeTrace(raw); err != nil {
			fmt.Fprintf(stderr, "pmrace: trace: invalid trace-event document: %v\n", err)
			return 2
		}
	}
	if *out == "" {
		_, err := stdout.Write(raw)
		if err != nil {
			fmt.Fprintf(stderr, "pmrace: trace: %v\n", err)
			return 2
		}
		return 0
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintf(stderr, "pmrace: trace: %v\n", err)
		return 2
	}
	return 0
}

// bundleTrace converts an artifact bundle's span snapshot (spans.json) into
// a Chrome trace-event document.
func bundleTrace(dir string) ([]byte, error) {
	b, err := artifact.Load(dir)
	if err != nil {
		return nil, err
	}
	meta := obs.TraceMeta{Campaign: dir, Target: b.Bug.Target}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, b.Spans, meta); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

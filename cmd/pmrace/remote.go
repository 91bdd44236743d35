// The remote subcommands drive a pmraced control plane through package
// client:
//
//	pmrace submit -server http://host:7762 -target pclht -execs 500 -wait
//	pmrace status -server http://host:7762 [-id c0001]
//	pmrace cancel -server http://host:7762 -id c0001 [-wait]
//	pmrace logs   -server http://host:7762 -id c0001 [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/client"
	"github.com/pmrace-go/pmrace/internal/obs"
)

// runRemote dispatches the pmraced subcommands. cmd is the first argument,
// args the flags after it. Exit codes match the local runs: 0 clean, 1 the
// campaign confirmed bugs, 2 usage/transport error.
func runRemote(cmd string, args []string, stdout, stderr io.Writer) int {
	switch cmd {
	case "submit":
		return runSubmit(args, stdout, stderr)
	case "status":
		return runStatus(args, stdout, stderr)
	case "cancel":
		return runCancel(args, stdout, stderr)
	case "logs":
		return runLogs(args, stdout, stderr)
	case "trace":
		return runTrace(args, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "pmrace: unknown command %q (want submit, status, cancel, logs or trace)\n", cmd)
		return 2
	}
}

// remoteFlags declares the flags every subcommand shares.
func remoteFlags(name string, stderr io.Writer) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("pmrace "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://127.0.0.1:7762", "pmraced base URL")
	return fs, server
}

// submitErrorLine renders a submit failure for the terminal. An unknown
// target is an operator typo, not a protocol failure, so instead of the raw
// API error envelope it prints the server's one-line explanation, which
// ends with the registered-target listing.
func submitErrorLine(err error) string {
	if ae, ok := err.(*api.Error); ok && ae.Code == api.CodeUnknownTarget {
		return fmt.Sprintf("pmrace: %s", ae.Message)
	}
	return fmt.Sprintf("pmrace: submit: %v", err)
}

// submitFlags are pmrace submit's flags: the shared spec flags plus the
// remote-only ones.
type submitFlags struct {
	spec          *api.CampaignSpec
	server        *string
	wait, jsonOut *bool
}

func newSubmitFlags(stderr io.Writer) (*flag.FlagSet, *submitFlags) {
	fs, server := remoteFlags("submit", stderr)
	f := &submitFlags{spec: specFlags(fs), server: server}
	fs.BoolVar(&f.spec.Artifacts, "artifacts", false, "write a forensic bundle per confirmed bug (fetch via the artifacts endpoints)")
	f.wait = fs.Bool("wait", false, "block until the campaign is terminal and print its final document")
	f.jsonOut = fs.Bool("json", false, "print campaign documents as JSON")
	return fs, f
}

func runSubmit(args []string, stdout, stderr io.Writer) int {
	fs, f := newSubmitFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cl := client.New(*f.server)
	ctx, stop := signalContext()
	defer stop()

	doc, err := cl.Submit(ctx, *f.spec)
	if err != nil {
		fmt.Fprintln(stderr, submitErrorLine(err))
		return 2
	}
	if !*f.wait {
		printCampaign(stdout, doc, *f.jsonOut)
		return 0
	}
	final, err := cl.Wait(ctx, doc.ID, 0)
	if err != nil {
		fmt.Fprintf(stderr, "pmrace: wait: %v\n", err)
		return 2
	}
	printCampaign(stdout, final, *f.jsonOut)
	if len(final.Bugs) > 0 {
		return 1
	}
	return 0
}

func runStatus(args []string, stdout, stderr io.Writer) int {
	fs, server := remoteFlags("status", stderr)
	id := fs.String("id", "", "campaign ID (empty: list all campaigns and the server document)")
	jsonOut := fs.Bool("json", false, "print documents as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cl := client.New(*server)
	ctx, stop := signalContext()
	defer stop()

	if *id != "" {
		doc, err := cl.Get(ctx, *id)
		if err != nil {
			fmt.Fprintf(stderr, "pmrace: status: %v\n", err)
			return 2
		}
		printCampaign(stdout, doc, *jsonOut)
		return 0
	}
	info, err := cl.Info(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "pmrace: status: %v\n", err)
		return 2
	}
	list, err := cl.List(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "pmrace: status: %v\n", err)
		return 2
	}
	if *jsonOut {
		printJSON(stdout, struct {
			Server    *api.ServerInfo `json:"server"`
			Campaigns []api.Campaign  `json:"campaigns"`
		}{info, list})
		return 0
	}
	fmt.Fprintf(stdout, "pmraced %s: %d/%d workers in use, %d campaigns, draining=%v\n",
		info.Version, info.WorkersInUse, info.WorkerBudget, info.Campaigns, info.Draining)
	for i := range list {
		printCampaign(stdout, &list[i], false)
	}
	return 0
}

func runCancel(args []string, stdout, stderr io.Writer) int {
	fs, server := remoteFlags("cancel", stderr)
	id := fs.String("id", "", "campaign ID (required)")
	wait := fs.Bool("wait", false, "block until the drain settles and print the final document")
	jsonOut := fs.Bool("json", false, "print campaign documents as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *id == "" {
		fmt.Fprintln(stderr, "pmrace: cancel: -id is required")
		return 2
	}
	cl := client.New(*server)
	ctx, stop := signalContext()
	defer stop()

	doc, err := cl.Cancel(ctx, *id)
	if err != nil {
		fmt.Fprintf(stderr, "pmrace: cancel: %v\n", err)
		return 2
	}
	if *wait && !doc.State.Terminal() {
		if doc, err = cl.Wait(ctx, *id, 0); err != nil {
			fmt.Fprintf(stderr, "pmrace: cancel: %v\n", err)
			return 2
		}
	}
	printCampaign(stdout, doc, *jsonOut)
	return 0
}

func runLogs(args []string, stdout, stderr io.Writer) int {
	fs, server := remoteFlags("logs", stderr)
	id := fs.String("id", "", "campaign ID (required)")
	jsonOut := fs.Bool("json", false, "print the raw JSONL envelopes instead of human lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *id == "" {
		fmt.Fprintln(stderr, "pmrace: logs: -id is required")
		return 2
	}
	cl := client.New(*server)
	ctx, stop := signalContext()
	defer stop()

	events, errFn, err := cl.Events(ctx, *id)
	if err != nil {
		fmt.Fprintf(stderr, "pmrace: logs: %v\n", err)
		return 2
	}
	for ev := range events {
		if *jsonOut {
			printJSON(stdout, struct {
				Kind obs.Kind `json:"kind"`
				Data any      `json:"data"`
			}{ev.Kind(), ev})
			continue
		}
		fmt.Fprintf(stdout, "%-22s %s\n", ev.Kind(), obs.Fingerprint(ev))
	}
	if err := errFn(); err != nil {
		fmt.Fprintf(stderr, "pmrace: logs: %v\n", err)
		return 2
	}
	return 0
}

func printCampaign(w io.Writer, c *api.Campaign, asJSON bool) {
	if asJSON {
		printJSON(w, c)
		return
	}
	line := fmt.Sprintf("%s  %-10s %-9s execs=%d bugs=%d", c.ID, c.Spec.Target, c.State,
		c.Stats.Execs, len(c.Bugs))
	if c.Error != "" {
		line += "  error=" + c.Error
	}
	fmt.Fprintln(w, line)
	for _, b := range c.Bugs {
		dup := ""
		if b.Duplicate {
			dup = fmt.Sprintf("  (duplicate of %s's finding)", b.FirstReportedBy)
		}
		fmt.Fprintf(w, "    [%s] %s — %s%s\n", b.Kind, b.Site, b.Summary, dup)
	}
}

func printJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// signalContext cancels on Ctrl-C / SIGTERM so remote waits and streams end
// promptly.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"soar/internal/naas"
)

// runShards asks a sharded soar-naasd (started with -shard) for its
// membership view and renders one row per shard: who is primary, at
// what epoch, how far the journal has advanced, and how many standbys
// stand behind it. An epoch that grew since the last look means a
// failover happened; a primary of "-" means the shard is electing.
func runShards(args []string) error {
	fs := newFlagSet("shards")
	addr := fs.String("addr", "http://127.0.0.1:7070", "daemon base URL")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	shards, err := naas.NewClient(*addr, nil).Shards(ctx)
	if err != nil {
		return err
	}
	return printShards(os.Stdout, shards)
}

func printShards(w io.Writer, shards []naas.ShardInfo) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SHARD\tROOT\tEPOCH\tPRIMARY\tSTANDBYS\tSEQ\tTENANTS")
	for _, s := range shards {
		primary := "-"
		if s.PrimaryNode >= 0 {
			primary = fmt.Sprintf("node %d", s.PrimaryNode)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n",
			s.Index, s.Root, s.Epoch, primary, s.Standbys, s.Seq, s.Tenants)
	}
	return tw.Flush()
}

// Command gmdbcli is an interactive GMDB demo shell over the MME session
// schema chain (V3..V8).
//
// Commands:
//
//	put <key> <version>          store a generated session at a version
//	get <key> <version>          read (with on-the-fly schema conversion)
//	delta <key> <version>        apply a synthetic delta update
//	del <key>                    delete
//	watch <key> <version>        print future changes of key
//	matrix                       print the Fig 8 conversion matrix
//	stats                        store counters
//	quit
package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/gmdb"
	"repro/internal/gmdb/schema"
	"repro/internal/mme"
	"repro/internal/transport"
)

func main() {
	reg := schema.NewRegistry()
	if err := mme.RegisterAll(reg); err != nil {
		fmt.Fprintln(os.Stderr, "gmdbcli:", err)
		os.Exit(1)
	}
	store := gmdb.NewStore(reg, gmdb.Config{Partitions: 2})
	defer store.Close()
	rng := rand.New(rand.NewSource(1))
	nextID := int64(0)

	fmt.Println("gmdbcli — GMDB with MME schemas V3,V5,V6,V7,V8. 'help' for commands.")
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("gmdb> ")
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			fmt.Print("gmdb> ")
			continue
		}
		switch fields[0] {
		case "quit", "exit", "q":
			return
		case "help":
			fmt.Println("put|get|delta <key> <version>, del <key>, watch <key> <version>, matrix, stats, quit")
		case "put":
			if v, key, ok := keyVersion(fields); ok {
				nextID++
				obj, err := mme.GenerateSession(rng, v, nextID)
				if err == nil {
					err = store.Put(key, obj)
				}
				report(err, "stored %s at V%d", key, v)
			}
		case "get":
			if v, key, ok := keyVersion(fields); ok {
				obj, err := store.Get(key, v)
				if err != nil {
					fmt.Println("ERROR:", err)
					break
				}
				sc, _ := reg.Get(mme.SessionType, v)
				fmt.Printf("v%d (%d fields):", obj.Version, len(obj.Root.Values))
				for i, f := range sc.Root.Fields {
					val := obj.Root.Values[i]
					text := val.Scalar.String()
					if f.Kind == schema.RecordArray {
						text = fmt.Sprintf("[%d]", len(val.Records))
					} else if len(text) > 40 {
						text = text[:40] + "…"
					}
					fmt.Printf(" %s=%s", f.Name, text)
				}
				fmt.Println()
			}
		case "delta":
			if v, key, ok := keyVersion(fields); ok {
				d, err := mme.SessionDelta(rng, v, key, 0)
				if err == nil {
					err = store.ApplyDelta(key, d)
				}
				report(err, "applied V%d delta to %s", v, key)
			}
		case "del":
			if len(fields) == 2 {
				report(store.Delete(fields[1]), "deleted %s", fields[1])
			} else {
				fmt.Println("usage: del <key>")
			}
		case "watch":
			if v, key, ok := keyVersion(fields); ok {
				sub, err := store.Subscribe(key, v, 16)
				if err != nil {
					fmt.Println("ERROR:", err)
					break
				}
				fmt.Printf("watching %s at V%d (events print asynchronously)\n", key, v)
				go func() {
					for n := range sub.C {
						switch {
						case n.Deleted:
							fmt.Printf("\n[watch] %s deleted\ngmdb> ", n.Key)
						case n.Delta != nil:
							fmt.Printf("\n[watch] %s delta (v%d, %d patches)\ngmdb> ", n.Key, n.Delta.Version, len(n.Delta.Patches))
						default:
							fmt.Printf("\n[watch] %s replaced (v%d)\ngmdb> ", n.Key, n.Object.Version)
						}
					}
				}()
			}
		case "matrix":
			m := mme.ConversionMatrix(reg)
			headers := []string{"MME"}
			for _, v := range mme.Versions {
				headers = append(headers, fmt.Sprintf("V%d", v))
			}
			var rows [][]string
			for i, v := range mme.Versions {
				rows = append(rows, append([]string{fmt.Sprintf("V%d", v)}, m[i]...))
			}
			benchfmt.Table(os.Stdout, "Fig 8 conversion matrix", headers, rows)
		case "stats":
			st, fab := store.Stats(), store.Fabric().Stats()
			fmt.Printf("puts=%d gets=%d deltas=%d deletes=%d conversions=%d fullSyncBytes=%d deltaSyncBytes=%d\n",
				st.Puts, st.Gets, st.Deltas, st.Deletes, st.Conversions,
				fab.Get(transport.GMDBPub).Bytes, fab.Get(transport.GMDBDelta).Bytes)
		default:
			fmt.Println("unknown command; try 'help'")
		}
		fmt.Print("gmdb> ")
	}
}

func keyVersion(fields []string) (int, string, bool) {
	if len(fields) != 3 {
		fmt.Printf("usage: %s <key> <version>\n", fields[0])
		return 0, "", false
	}
	v, err := strconv.Atoi(fields[2])
	if err != nil {
		fmt.Println("bad version:", fields[2])
		return 0, "", false
	}
	return v, fields[1], true
}

func report(err error, format string, args ...any) {
	if err != nil {
		fmt.Println("ERROR:", err)
		return
	}
	fmt.Printf(format+"\n", args...)
}

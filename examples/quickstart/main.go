// Quickstart: create an engine, define a table, bind DORA executors to it,
// and run transactions both ways — conventionally (thread-to-transaction,
// centralized locking) and as DORA flow graphs (thread-to-data, thread-local
// locking) — against the same shared-everything database.
//
// With -logdir the engine journals everything into a durable segmented WAL:
// the program opens the directory, runs, closes, then reopens it through
// restart recovery and shows the state intact — the same path that brings a
// database back after a crash (SIGKILL included; see TestSIGKILLCrashRestart
// in internal/workload/tpcc).
package main

import (
	"flag"
	"fmt"
	"log"

	"dora"
)

func main() {
	logdir := flag.String("logdir", "", "directory for a durable segmented WAL; empty keeps the log in memory")
	flag.Parse()

	// 1. Storage engine and schema. With -logdir the engine is file-backed
	//    (fsync once per coalesced commit group); reopening an already
	//    initialized directory recovers the previous run's state, so tables
	//    are only created when the catalog is empty.
	eng := openEngine(*logdir)
	if len(eng.Tables()) == 0 {
		if _, err := eng.CreateTable(dora.TableDef{
			Name: "ACCOUNTS",
			Schema: dora.NewSchema(
				dora.Column{Name: "branch", Kind: dora.KindInt},
				dora.Column{Name: "id", Kind: dora.KindInt},
				dora.Column{Name: "owner", Kind: dora.KindString},
				dora.Column{Name: "balance", Kind: dora.KindFloat},
			),
			PrimaryKey:    []string{"branch", "id"},
			RoutingFields: []string{"branch"}, // DORA routes on the branch id
			Secondary:     []dora.SecondaryDef{{Name: "by_owner", Columns: []string{"owner"}}},
		}); err != nil {
			log.Fatal(err)
		}

		// 2. Load a few accounts conventionally.
		txn := eng.Begin()
		for branch := int64(1); branch <= 4; branch++ {
			for id := int64(1); id <= 3; id++ {
				_, err := eng.Insert(txn, "ACCOUNTS", dora.Tuple{
					dora.Int(branch), dora.Int(id),
					dora.Str(fmt.Sprintf("acct-%d-%d", branch, id)),
					dora.Float(1000),
				}, dora.Conventional())
				if err != nil {
					log.Fatal(err)
				}
			}
		}
		if err := eng.Commit(txn); err != nil {
			log.Fatal(err)
		}
	}

	// 3. Bind the table to DORA executors: branches 1-4 split over 2
	//    executors, each owning a disjoint dataset.
	sys := dora.NewSystem(eng, dora.SystemConfig{})
	if err := sys.BindTableInts("ACCOUNTS", 1, 4, 2); err != nil {
		log.Fatal(err)
	}

	// 4. A DORA transaction: transfer 100 from branch 1 to branch 4. The two
	//    actions run on different executors; the terminal rendezvous point
	//    commits once both have finished.
	col := dora.NewCollector()
	eng.SetCollector(col)
	tx := sys.NewTransaction()
	transfer := func(branch int64, delta float64) *dora.Action {
		return &dora.Action{
			Table: "ACCOUNTS", Key: dora.Key(dora.Int(branch)), Mode: dora.Exclusive,
			Work: func(s *dora.Scope) error {
				return s.Update("ACCOUNTS", dora.Key(dora.Int(branch), dora.Int(1)),
					func(tu dora.Tuple) (dora.Tuple, error) {
						tu[3] = dora.Float(tu[3].Float + delta)
						return tu, nil
					})
			},
		}
	}
	tx.Add(0, transfer(1, -100))
	tx.Add(0, transfer(4, +100))
	if err := tx.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("DORA transfer committed:", tx.State())
	census := col.LockCensus()
	eng.SetCollector(nil)

	// 5. Read the result conventionally — both execution models share the
	//    same database and ACID properties.
	b1, b4 := balances(eng)
	fmt.Printf("branch 1 balance: %.0f, branch 4 balance: %.0f\n", b1, b4)

	// 6. The lock census shows what DORA is about: the transfer took only
	//    thread-local locks, no centralized ones.
	fmt.Printf("locks acquired by the DORA transfer: thread-local=%d, row-level=%d, higher-level=%d\n",
		census[dora.LocalLock], census[dora.RowLock], census[dora.HigherLevelLock])

	// 7. With a durable log, the state survives a full close/reopen cycle:
	//    a second engine rebuilds catalog, data, and indexes from the
	//    segment files alone.
	sys.Stop()
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	if *logdir == "" {
		return
	}
	reopened, stats, err := dora.OpenEngine(*logdir, dora.EngineConfig{LogSync: dora.SyncOnFlush})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	fmt.Printf("reopened %s: analyzed=%d records, redone=%d, winners=%d\n",
		*logdir, stats.Analyzed, stats.Redone, stats.Winners)
	b1, b4 = balances(reopened)
	fmt.Printf("balances after restart recovery: branch 1: %.0f, branch 4: %.0f (transfer intact)\n", b1, b4)
}

// openEngine builds the in-memory engine, or a durable file-backed one that
// fsyncs once per coalesced commit group.
func openEngine(logdir string) *dora.Engine {
	if logdir == "" {
		return dora.NewEngine(dora.EngineConfig{})
	}
	eng, stats, err := dora.OpenEngine(logdir, dora.EngineConfig{LogSync: dora.SyncOnFlush})
	if err != nil {
		log.Fatal(err)
	}
	if stats.Analyzed > 0 {
		fmt.Printf("recovered existing log: analyzed=%d redone=%d winners=%d losers=%d\n",
			stats.Analyzed, stats.Redone, stats.Winners, stats.Losers)
	}
	return eng
}

// balances reads the two demo balances conventionally.
func balances(eng *dora.Engine) (b1, b4 float64) {
	check := eng.Begin()
	from, err := eng.Probe(check, "ACCOUNTS", dora.Key(dora.Int(1), dora.Int(1)), dora.Conventional())
	if err != nil {
		log.Fatal(err)
	}
	to, err := eng.Probe(check, "ACCOUNTS", dora.Key(dora.Int(4), dora.Int(1)), dora.Conventional())
	if err != nil {
		log.Fatal(err)
	}
	eng.Commit(check)
	return from[3].Float, to[3].Float
}

package main

// Example runs the quickstart as a user would and holds it to its output:
// the query by form, the prepared LIKE … ORDER BY name query (a scan, a
// filter and a sort), the window's screen and its counters. A change to any
// of those paths that changes what the quickstart prints fails here.
func Example() {
	main()
	// Output:
	// query by form 'name: G%' selected 1 row(s)
	//
	// prepared query name LIKE "G%":
	//   Grace Hopper (Arlington)
	// prepared query name LIKE "%a%":
	//   Ada Lovelace (London)
	//   Edgar Codd (San Jose)
	//   Grace Hopper (Arlington)
	//
	// + People [BROWSE] -----------------------------------------------------------+
	// |   Id  1                                                                    |
	// | Name  Ada Lovelace                                                         |
	// | City  London                                                               |
	// |Phone  555-0100                                                             |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// |                                                                            |
	// | row 1 of 3                                                                 |
	//  1 row(s) saved
	// +----------------------------------------------------------------------------+
	//
	// window stats: {Keystrokes:0 Repaints:9 CellsPainted:18789 Queries:13 RowsFetched:16 Saves:3 Deletes:0 Refreshes:6}
	// plan cache: 0 hits / 8 misses; cursors: 15 opened, 20 rows streamed
}

// Command tool calls lib.Called.
package main

import "fixture/internal/lib"

func main() { println(lib.Called()) }

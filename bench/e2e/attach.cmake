# Adds bench/e2e to a build of the repository without editing its
# CMakeLists.txt files. Configure the repository root with
#   cmake -S . -B .bench_build/e2e \
#         -DCMAKE_PROJECT_graphtides_INCLUDE=$PWD/bench/e2e/attach.cmake
# project(graphtides) includes this file, which defers including
# bench/e2e/CMakeLists.txt to the end of the top-level CMakeLists.txt. The
# benchmark's targets are thus defined after, and with, the repository's own
# compiler settings, options and targets: it is built exactly like the
# program it measures.
cmake_language(EVAL CODE
  "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
